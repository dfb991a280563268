#include "core/exchange.hpp"

#include "rt/collectives.hpp"
#include "support/error.hpp"

namespace drms::core {

void exchange_sections(rt::TaskContext& ctx,
                       const std::vector<Slice>& src_assigned,
                       const LocalArray* my_src,
                       const std::vector<Slice>& dst_mapped,
                       LocalArray* my_dst, std::size_t elem_size,
                       obs::Recorder* recorder) {
  const int p = ctx.size();
  const int me = ctx.rank();
  DRMS_EXPECTS_MSG(static_cast<int>(src_assigned.size()) == p &&
                       static_cast<int>(dst_mapped.size()) == p,
                   "exchange_sections needs one slice per task");
  obs::ScopedSpan span(recorder, "exchange", "sections", me,
                       ctx.sim_time());

  const Slice& my_assigned = src_assigned[static_cast<std::size_t>(me)];
  const Slice& my_mapped = dst_mapped[static_cast<std::size_t>(me)];

  // Outgoing: the piece of my assigned source data needed by each other
  // task's mapped destination. Both sides compute the same intersection
  // slice, so messages carry only raw element bytes in stream order. My
  // own piece skips the mailbox: it is copied from my source straight into
  // my destination below, and still counted as sent and received.
  std::vector<support::ByteBuffer> outgoing(static_cast<std::size_t>(p));
  std::uint64_t own_bytes = 0;
  if (my_src != nullptr && !my_assigned.empty()) {
    for (int dst = 0; dst < p; ++dst) {
      const Slice piece =
          my_assigned.intersect(dst_mapped[static_cast<std::size_t>(dst)]);
      if (piece.empty()) {
        continue;
      }
      if (dst == me) {
        own_bytes =
            static_cast<std::uint64_t>(piece.element_count()) * elem_size;
        continue;
      }
      // Gather straight into the outgoing mailbox buffer: the buffer grows
      // by exactly the piece size in one allocation and extract() writes
      // the element runs in place (no intermediate vector).
      auto& buf = outgoing[static_cast<std::size_t>(dst)];
      my_src->extract(
          piece,
          buf.append_uninitialized(
              static_cast<std::size_t>(piece.element_count()) * elem_size));
    }
  }

  if (recorder != nullptr) {
    std::uint64_t bytes_out = own_bytes;
    for (const auto& buf : outgoing) {
      bytes_out += buf.size();
    }
    recorder->count("exchange.bytes_sent", bytes_out);
  }

  std::vector<support::ByteBuffer> incoming =
      rt::all_to_all(ctx, std::move(outgoing));

  if (recorder != nullptr) {
    std::uint64_t bytes_in = own_bytes;
    for (const auto& buf : incoming) {
      bytes_in += buf.size();
    }
    recorder->count("exchange.bytes_received", bytes_in);
  }

  if (my_dst != nullptr && !my_mapped.empty()) {
    for (int src = 0; src < p; ++src) {
      const Slice piece =
          src_assigned[static_cast<std::size_t>(src)].intersect(my_mapped);
      if (piece.empty()) {
        continue;
      }
      if (src == me && my_src != nullptr) {
        my_dst->copy_from(*my_src, piece);
        continue;
      }
      const auto& buf = incoming[static_cast<std::size_t>(src)];
      const std::uint64_t expected =
          static_cast<std::uint64_t>(piece.element_count()) * elem_size;
      DRMS_EXPECTS_MSG(buf.size() == expected,
                       "exchange payload size mismatch");
      my_dst->insert(piece, buf.bytes());
    }
  }
  span.end(ctx.sim_time());
}

}  // namespace drms::core
