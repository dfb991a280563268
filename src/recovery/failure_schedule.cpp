#include "recovery/failure_schedule.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace drms::recovery {

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kKillPool: return "kill";
    case FailureKind::kNodeLoss: return "nodeloss";
    case FailureKind::kTransientFaults: return "transient";
    case FailureKind::kTornNewest: return "torn";
    case FailureKind::kCorruptNewest: return "corrupt";
  }
  return "?";
}

FailureSchedule FailureSchedule::random(std::uint64_t seed,
                                        const ScheduleShape& shape) {
  const int ce = shape.checkpoint_every;
  const int last = shape.iterations - 1;
  DRMS_EXPECTS_MSG(ce >= 1 && shape.iterations >= 3 * ce + 1,
                   "schedule shape too small for every failure class");
  // The newest checkpoint a torn/corrupt event can target while leaving
  // an older generation to fall back to.
  const int last_ckpt = (last / ce) * ce;

  support::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xC0FFEE);
  FailureSchedule schedule;
  const auto kill_at = [&](int launch, std::int64_t it) {
    FailureEvent e;
    e.kind = FailureKind::kKillPool;
    e.launch = launch;
    e.at_iteration = it;
    schedule.events.push_back(e);
  };

  switch (seed % 5) {
    case 0: {  // plain task kill anywhere in the run
      kill_at(0, rng.uniform_int(1, last));
      break;
    }
    case 1: {  // node loss after the first checkpoint
      FailureEvent e;
      e.kind = FailureKind::kNodeLoss;
      e.launch = 0;
      e.at_iteration = rng.uniform_int(ce + 1, last);
      e.node_ordinal = static_cast<int>(rng.uniform_int(0, 7));
      schedule.events.push_back(e);
      break;
    }
    case 2: {  // transient storage faults, absorbed before a later kill
      FailureEvent e;
      e.kind = FailureKind::kTransientFaults;
      e.launch = 0;
      // Fire right after the first checkpoint; the next checkpoint's
      // retried mutations consume the budget before the kill lands.
      e.at_iteration = ce;
      e.transient_count = static_cast<int>(rng.uniform_int(1, 2));
      schedule.events.push_back(e);
      kill_at(0, rng.uniform_int(2 * ce, last));
      break;
    }
    case 3:
    case 4: {  // mutilate the newest generation, then kill the run
      FailureEvent e;
      e.kind = seed % 5 == 3 ? FailureKind::kTornNewest
                             : FailureKind::kCorruptNewest;
      e.launch = 0;
      e.at_iteration =
          ce * rng.uniform_int(2, std::max(2, last_ckpt / ce));
      schedule.events.push_back(e);
      kill_at(0, e.at_iteration);  // same hook invocation, after the event
      break;
    }
  }

  if (shape.allow_second_failure && rng.next_double() < 0.5) {
    kill_at(1, rng.uniform_int(ce + 1, last));
  }
  schedule.normalize();
  return schedule;
}

void FailureSchedule::normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FailureEvent& a, const FailureEvent& b) {
                     if (a.launch != b.launch) {
                       return a.launch < b.launch;
                     }
                     return a.at_iteration < b.at_iteration;
                   });
}

bool FailureSchedule::has_kind(FailureKind kind) const {
  return std::any_of(events.begin(), events.end(),
                     [kind](const FailureEvent& e) { return e.kind == kind; });
}

std::string FailureSchedule::describe() const {
  std::string out;
  for (const auto& e : events) {
    if (!out.empty()) {
      out += "; ";
    }
    out += to_string(e.kind);
    if (e.kind == FailureKind::kNodeLoss) {
      out += '#';
      out += std::to_string(e.node_ordinal);
    }
    if (e.kind == FailureKind::kTransientFaults) {
      out += 'x';
      out += std::to_string(e.transient_count);
    }
    out += "@L" + std::to_string(e.launch) + "/i" +
           std::to_string(e.at_iteration);
  }
  return out.empty() ? "none" : out;
}

}  // namespace drms::recovery
