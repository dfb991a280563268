#include "svc/drain_service.hpp"

#include <optional>
#include <string>

namespace drms::svc {

namespace {

void tally(store::TieredBackend::DrainReport& report, std::uint64_t bytes,
           double seconds) {
  report.files_drained += 1;
  report.bytes_drained += bytes;
  report.simulated_seconds += seconds;
}

void tally(EncodeReport& report, std::uint64_t bytes, double seconds) {
  report.files_encoded += 1;
  report.bytes_encoded += bytes;
  report.simulated_seconds += seconds;
}

}  // namespace

/// The one submit loop behind submit_drain and submit_encode: one
/// DRAIN-class item per file of `work`, sharded by file name. Each item
/// runs `run` on its file, which returns the bytes it moved, or nullopt
/// when the file was handled, re-created, or removed since the snapshot.
struct BackgroundPass {
  template <class Report, class Backend, class Work>
  static BackgroundTicket<Report> submit(
      IoScheduler& scheduler, const JobToken& job, Backend& backend,
      const Work& work,
      std::optional<std::uint64_t> (Backend::*run)(const std::string&),
      double (Backend::*seconds)(std::uint64_t, const sim::LoadContext&)
          const,
      const sim::LoadContext& load) {
    BackgroundTicket<Report> ticket;
    ticket.state_ =
        std::make_shared<typename BackgroundTicket<Report>::State>();
    for (const auto& item : work) {
      ticket.completions_.push_back(scheduler.submit(
          job, Priority::kDrain, item.name, item.bytes,
          (backend.*seconds)(item.bytes, load),
          [state = ticket.state_, &backend, run, seconds, load,
           name = item.name] {
            const std::optional<std::uint64_t> moved = (backend.*run)(name);
            if (!moved.has_value()) {
              return;
            }
            const double sim = (backend.*seconds)(*moved, load);
            const std::lock_guard<std::mutex> lock(state->mutex);
            tally(state->report, *moved, sim);
          }));
    }
    return ticket;
  }
};

DrainTicket submit_drain(IoScheduler& scheduler, const JobToken& job,
                         store::TieredBackend& backend,
                         const sim::LoadContext& load) {
  return BackgroundPass::submit<store::TieredBackend::DrainReport>(
      scheduler, job, backend, backend.drain_work(),
      &store::TieredBackend::drain_file,
      &store::TieredBackend::drain_write_seconds, load);
}

EncodeTicket submit_encode(IoScheduler& scheduler, const JobToken& job,
                           store::RedundantBackend& backend,
                           const sim::LoadContext& load) {
  return BackgroundPass::submit<EncodeReport>(
      scheduler, job, backend, backend.encode_work(),
      &store::RedundantBackend::encode_file,
      &store::RedundantBackend::encode_write_seconds, load);
}

}  // namespace drms::svc
