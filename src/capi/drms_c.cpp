#include "capi/drms_c.h"

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <memory>

#include "adapt/controller.hpp"
#include "core/checkpoint_catalog.hpp"
#include "core/drms_context.hpp"
#include "obs/recorder.hpp"
#include "core/redistribute.hpp"
#include "piofs/volume.hpp"
#include "rt/task_group.hpp"
#include "sim/machine.hpp"
#include "store/memory_backend.hpp"
#include "store/piofs_backend.hpp"
#include "store/tiered_backend.hpp"
#include "support/error.hpp"

struct drms_volume {
  drms::piofs::Volume volume;
  drms::store::PiofsBackend piofs_backend;
  /* Present only for tiered volumes (drms_volume_create_tiered). */
  std::unique_ptr<drms::store::MemoryBackend> memory_backend;
  std::unique_ptr<drms::store::TieredBackend> tiered_backend;

  explicit drms_volume(int servers)
      : volume(servers), piofs_backend(volume) {}
  drms_volume(int servers, uint64_t fast_capacity_bytes)
      : volume(servers),
        piofs_backend(volume),
        memory_backend(std::make_unique<drms::store::MemoryBackend>(
            fast_capacity_bytes)),
        tiered_backend(std::make_unique<drms::store::TieredBackend>(
            *memory_backend, piofs_backend)) {}

  /* The backend checkpoint I/O goes through. */
  drms::store::StorageBackend& storage() {
    return tiered_backend != nullptr
               ? static_cast<drms::store::StorageBackend&>(*tiered_backend)
               : piofs_backend;
  }
  const drms::store::StorageBackend& storage() const {
    return tiered_backend != nullptr
               ? static_cast<const drms::store::StorageBackend&>(
                     *tiered_backend)
               : piofs_backend;
  }
};

struct drms_context {
  drms::core::DrmsProgram* program;
  drms::rt::TaskContext* task;
  drms::core::DrmsContext drms;
  std::vector<drms::core::DistArray*> arrays;
  std::string last_error;

  drms_context(drms::core::DrmsProgram& p, drms::rt::TaskContext& t)
      : program(&p), task(&t), drms(p, t) {}
};

namespace {

/// Run `body`, translating exceptions into DRMS_ERR + last_error. Kill
/// requests must keep unwinding the task, so TaskKilled is re-thrown.
template <typename Fn>
int guarded(drms_context_t* ctx, Fn&& body) {
  if (ctx == nullptr) {
    return DRMS_ERR;
  }
  try {
    body();
    return DRMS_OK;
  } catch (const drms::support::TaskKilled&) {
    throw;
  } catch (const std::exception& e) {
    ctx->last_error = e.what();
    return DRMS_ERR;
  }
}

drms::core::DistArray* array_of(drms_context_t* ctx, int array_id) {
  if (array_id < 0 ||
      array_id >= static_cast<int>(ctx->arrays.size())) {
    throw drms::support::Error("invalid array id " +
                               std::to_string(array_id));
  }
  return ctx->arrays[static_cast<std::size_t>(array_id)];
}

}  // namespace

extern "C" {

drms_volume_t* drms_volume_create(int servers) {
  if (servers < 1) {
    return nullptr;
  }
  try {
    return new drms_volume(servers);
  } catch (...) {
    return nullptr;
  }
}

drms_volume_t* drms_volume_create_tiered(int servers,
                                         uint64_t fast_capacity_bytes) {
  if (servers < 1) {
    return nullptr;
  }
  try {
    return new drms_volume(servers, fast_capacity_bytes);
  } catch (...) {
    return nullptr;
  }
}

int drms_volume_drain(drms_volume_t* volume) {
  if (volume == nullptr) {
    return DRMS_ERR;
  }
  if (volume->tiered_backend == nullptr) {
    return 0;
  }
  try {
    return volume->tiered_backend->drain().files_drained;
  } catch (...) {
    return DRMS_ERR;
  }
}

void drms_volume_destroy(drms_volume_t* volume) { delete volume; }

int drms_volume_checkpoint_exists(const drms_volume_t* volume,
                                  const char* prefix) {
  if (volume == nullptr || prefix == nullptr) {
    return 0;
  }
  return drms::core::checkpoint_exists(volume->storage(), prefix) ? 1 : 0;
}

int drms_volume_checkpoint_committed(const drms_volume_t* volume,
                                     const char* prefix) {
  if (volume == nullptr || prefix == nullptr) {
    return 0;
  }
  try {
    return drms::core::commit_status(volume->storage(), prefix, std::nullopt)
                   .committed
               ? 1
               : 0;
  } catch (...) {
    return 0;
  }
}

int drms_volume_fsck(const drms_volume_t* volume) {
  if (volume == nullptr) {
    return DRMS_ERR;
  }
  try {
    int torn = 0;
    for (const auto& s : drms::core::fsck_scan(volume->storage())) {
      if (!s.committed) {
        ++torn;
      }
    }
    return torn;
  } catch (...) {
    return DRMS_ERR;
  }
}

int drms_volume_gc(drms_volume_t* volume) {
  if (volume == nullptr) {
    return DRMS_ERR;
  }
  try {
    return drms::core::gc_torn_states(volume->storage());
  } catch (...) {
    return DRMS_ERR;
  }
}

int drms_run_spmd(drms_volume_t* volume,
                  const drms_run_options_t* options, drms_task_fn fn,
                  void* user) {
  if (volume == nullptr || options == nullptr || fn == nullptr ||
      options->tasks < 1 || options->app_name == nullptr) {
    return DRMS_ERR;
  }
  try {
    drms::core::DrmsEnv env;
    env.storage = &volume->storage();
    env.restart_prefix =
        options->restart_prefix != nullptr ? options->restart_prefix : "";
    env.mode = options->mode == DRMS_MODE_SPMD
                   ? drms::core::CheckpointMode::kSpmd
                   : drms::core::CheckpointMode::kDrms;
    // Adaptive scheduling: the run owns a recorder (the controller's
    // cost stream) and the interval controller itself.
    std::unique_ptr<drms::obs::Recorder> adapt_recorder;
    std::unique_ptr<drms::adapt::IntervalController> adapt_controller;
    if (options->adaptive != 0) {
      drms::adapt::ControllerOptions copts;
      if (options->adaptive_fixed_interval_seconds > 0.0) {
        copts.fixed_interval_seconds =
            options->adaptive_fixed_interval_seconds;
      }
      adapt_recorder = std::make_unique<drms::obs::Recorder>();
      adapt_controller =
          std::make_unique<drms::adapt::IntervalController>(copts);
      env.recorder = adapt_recorder.get();
      env.adapt = adapt_controller.get();
    }
    drms::core::AppSegmentModel segment;
    segment.static_local_bytes = options->static_local_bytes;
    segment.private_bytes = options->private_bytes;
    segment.system_bytes = options->system_bytes;
    segment.text_bytes = options->text_bytes;
    drms::core::DrmsProgram program(options->app_name, env, segment,
                                    options->tasks);

    drms::sim::Machine machine = drms::sim::Machine::paper_sp16();
    if (options->tasks > machine.node_count) {
      machine.node_count = options->tasks;
      machine.server_count = options->tasks;
    }
    drms::rt::TaskGroup group(
        drms::sim::Placement::one_per_node(machine, options->tasks));
    const auto result = group.run([&](drms::rt::TaskContext& task) {
      drms_context ctx(program, task);
      fn(&ctx, user);
    });
    return result.completed ? DRMS_OK : DRMS_ERR;
  } catch (...) {
    return DRMS_ERR;
  }
}

int drms_rank(const drms_context_t* ctx) {
  return ctx == nullptr ? -1 : ctx->task->rank();
}

int drms_size(const drms_context_t* ctx) {
  return ctx == nullptr ? -1 : ctx->task->size();
}

int drms_barrier(drms_context_t* ctx) {
  return guarded(ctx, [&] { ctx->task->barrier(); });
}

int drms_register_i64(drms_context_t* ctx, const char* name,
                      int64_t* var) {
  return guarded(ctx, [&] {
    if (name == nullptr || var == nullptr) {
      throw drms::support::Error("null name or variable");
    }
    ctx->drms.store().register_i64(name, var);
  });
}

int drms_register_f64(drms_context_t* ctx, const char* name, double* var) {
  return guarded(ctx, [&] {
    if (name == nullptr || var == nullptr) {
      throw drms::support::Error("null name or variable");
    }
    ctx->drms.store().register_f64(name, var);
  });
}

int drms_initialize(drms_context_t* ctx) {
  return guarded(ctx, [&] { ctx->drms.initialize(); });
}

int drms_restarted(const drms_context_t* ctx) {
  return ctx != nullptr && ctx->drms.restarted() ? 1 : 0;
}

int drms_create_array(drms_context_t* ctx, const char* name, int rank,
                      const int64_t* lower, const int64_t* upper,
                      int* array_id) {
  return guarded(ctx, [&] {
    if (name == nullptr || lower == nullptr || upper == nullptr ||
        array_id == nullptr || rank < 1) {
      throw drms::support::Error("invalid create_array arguments");
    }
    drms::core::DistArray& array = ctx->drms.create_array(
        name,
        std::span<const drms::core::Index>(lower,
                                           static_cast<std::size_t>(rank)),
        std::span<const drms::core::Index>(upper,
                                           static_cast<std::size_t>(rank)));
    // Reuse the id when this task already declared it (idempotent).
    for (std::size_t i = 0; i < ctx->arrays.size(); ++i) {
      if (ctx->arrays[i] == &array) {
        *array_id = static_cast<int>(i);
        return;
      }
    }
    ctx->arrays.push_back(&array);
    *array_id = static_cast<int>(ctx->arrays.size()) - 1;
  });
}

int drms_distribute_block(drms_context_t* ctx, int array_id,
                          const int64_t* shadow) {
  return guarded(ctx, [&] {
    drms::core::DistArray* array = array_of(ctx, array_id);
    const int rank = array->global_box().rank();
    std::vector<drms::core::Index> widths(
        static_cast<std::size_t>(rank), 0);
    if (shadow != nullptr) {
      for (int k = 0; k < rank; ++k) {
        widths[static_cast<std::size_t>(k)] = shadow[k];
      }
    }
    ctx->drms.distribute(*array,
                         drms::core::DistSpec::block_auto(
                             array->global_box(), ctx->task->size(),
                             widths));
  });
}

int drms_array_get(drms_context_t* ctx, int array_id,
                   const int64_t* point, double* value) {
  return guarded(ctx, [&] {
    drms::core::DistArray* array = array_of(ctx, array_id);
    if (point == nullptr || value == nullptr) {
      throw drms::support::Error("null point or value");
    }
    *value = array->local(ctx->task->rank())
                 .get_f64(std::span<const drms::core::Index>(
                     point,
                     static_cast<std::size_t>(array->global_box().rank())));
  });
}

int drms_array_set(drms_context_t* ctx, int array_id,
                   const int64_t* point, double value) {
  return guarded(ctx, [&] {
    drms::core::DistArray* array = array_of(ctx, array_id);
    if (point == nullptr) {
      throw drms::support::Error("null point");
    }
    array->local(ctx->task->rank())
        .set_f64(std::span<const drms::core::Index>(
                     point,
                     static_cast<std::size_t>(array->global_box().rank())),
                 value);
  });
}

int drms_array_owns(drms_context_t* ctx, int array_id,
                    const int64_t* point) {
  if (ctx == nullptr || point == nullptr) {
    return 0;
  }
  try {
    drms::core::DistArray* array = array_of(ctx, array_id);
    return array->distribution()
                   .assigned(ctx->task->rank())
                   .contains(std::span<const drms::core::Index>(
                       point, static_cast<std::size_t>(
                                  array->global_box().rank())))
               ? 1
               : 0;
  } catch (const drms::support::TaskKilled&) {
    throw;
  } catch (...) {
    return 0;
  }
}

int drms_refresh_shadows(drms_context_t* ctx, int array_id) {
  return guarded(ctx, [&] {
    drms::core::refresh_shadows(*ctx->task, *array_of(ctx, array_id));
  });
}

namespace {

int checkpoint_common(drms_context_t* ctx, const char* prefix, int* status,
                      int* delta, bool enabling) {
  return guarded(ctx, [&] {
    if (prefix == nullptr) {
      throw drms::support::Error("null checkpoint prefix");
    }
    const drms::core::ReconfigResult r =
        enabling ? ctx->drms.reconfig_chkenable(prefix)
                 : ctx->drms.reconfig_checkpoint(prefix);
    if (status != nullptr) {
      *status = r.status == drms::core::CheckpointStatus::kRestarted
                    ? DRMS_STATUS_RESTARTED
                    : DRMS_STATUS_CONTINUED;
    }
    if (delta != nullptr) {
      *delta = r.delta;
    }
  });
}

}  // namespace

int drms_reconfig_checkpoint(drms_context_t* ctx, const char* prefix,
                             int* status, int* delta) {
  return checkpoint_common(ctx, prefix, status, delta, false);
}

int drms_reconfig_chkenable(drms_context_t* ctx, const char* prefix,
                            int* status, int* delta) {
  return checkpoint_common(ctx, prefix, status, delta, true);
}

int drms_need_checkpoint(drms_context_t* ctx, int* need) {
  return guarded(ctx, [&] {
    if (need == nullptr) {
      throw drms::support::Error("null need output");
    }
    *need = ctx->drms.need_checkpoint() ? 1 : 0;
  });
}

const char* drms_last_error(const drms_context_t* ctx) {
  return ctx == nullptr ? "null context" : ctx->last_error.c_str();
}

}  // extern "C"
