// Tests for the checkpoint catalog: enumeration across DRMS and SPMD
// states, latest-SOP selection, torn-meta exclusion, retention, the
// shared on-volume readers' length checks against hostile records, and
// deep verify of the SPMD states the writer commits.
#include <gtest/gtest.h>

#include <array>
#include <atomic>

#include "core/checkpoint_catalog.hpp"
#include "core/drms_context.hpp"
#include "rt/task_group.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms::core;
namespace support = drms::support;
using Volume = drms::test::TestVolume;
using drms::rt::TaskContext;
using drms::rt::TaskGroup;
using drms::test::cube;
using drms::test::placement_of;

AppSegmentModel tiny_segment() {
  AppSegmentModel m;
  m.static_local_bytes = 8 * 1024;
  m.system_bytes = 8 * 1024;
  return m;
}

/// Write `checkpoints` under alternating prefixes through the public API.
void write_states(Volume& volume, const std::string& app, int tasks,
                  int checkpoints, CheckpointMode mode) {
  DrmsEnv env;
  env.storage = &volume.backend();
  env.mode = mode;
  DrmsProgram program(app, env, tiny_segment(), tasks);
  TaskGroup group(placement_of(tasks));
  const auto result = group.run([&](TaskContext& ctx) {
    DrmsContext drms(program, ctx);
    std::int64_t it = 0;
    drms.store().register_i64("it", &it);
    drms.initialize();
    const std::array<Index, 3> lo{0, 0, 0};
    const std::array<Index, 3> hi{5, 5, 5};
    DistArray& u = drms.create_array("u", lo, hi);
    drms.distribute(u, DistSpec::block_auto(cube(6), tasks,
                                            std::vector<Index>(3, 0)));
    for (int c = 0; c < checkpoints; ++c) {
      (void)drms.reconfig_checkpoint(app + (c % 2 == 0 ? ".even"
                                                       : ".odd"));
    }
  });
  ASSERT_TRUE(result.completed);
}

TEST(CheckpointCatalog, ListsAllStatesSortedBySop) {
  Volume volume(16);
  write_states(volume, "alpha", 3, 3, CheckpointMode::kDrms);
  write_states(volume, "beta", 2, 1, CheckpointMode::kSpmd);

  const auto records = list_checkpoints(volume);
  // alpha wrote SOP 1 (even), 2 (odd), 3 (even overwrites SOP 1);
  // beta wrote one SPMD state. Prefix "alpha.even" holds SOP 3 now.
  ASSERT_EQ(records.size(), 3u);
  EXPECT_LE(records[0].meta.sop, records[1].meta.sop);
  EXPECT_LE(records[1].meta.sop, records[2].meta.sop);

  int spmd_count = 0;
  for (const auto& r : records) {
    if (r.spmd) {
      ++spmd_count;
      EXPECT_EQ(r.meta.app_name, "beta");
      EXPECT_EQ(r.meta.task_count, 2);
    }
    EXPECT_GT(r.state_bytes, 0u);
  }
  EXPECT_EQ(spmd_count, 1);
}

TEST(CheckpointCatalog, LatestPicksHighestSop) {
  Volume volume(16);
  write_states(volume, "alpha", 3, 3, CheckpointMode::kDrms);
  const auto latest = latest_checkpoint(volume, "alpha");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->meta.sop, 3);
  EXPECT_EQ(latest->prefix, "alpha.even");
  EXPECT_FALSE(latest_checkpoint(volume, "nonexistent").has_value());
}

TEST(CheckpointCatalog, TornMetaIsSkipped) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 2, CheckpointMode::kDrms);
  // Corrupt one meta record.
  auto meta_file = volume.open(meta_file_name("alpha.even"));
  auto byte = meta_file.read_at(10, 1);
  byte[0] ^= std::byte{0xff};
  meta_file.write_at(10, byte);

  const auto records = list_checkpoints(volume);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].prefix, "alpha.odd");
}

TEST(CheckpointCatalog, RemoveDeletesEveryFile) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 2, CheckpointMode::kDrms);
  write_states(volume, "beta", 2, 1, CheckpointMode::kSpmd);

  auto records = list_checkpoints(volume);
  const std::size_t before = volume.list().size();
  ASSERT_FALSE(records.empty());
  remove_checkpoint(volume, records.front());
  EXPECT_LT(volume.list().size(), before);
  EXPECT_EQ(list_checkpoints(volume).size(), records.size() - 1);

  // Remove the SPMD one too.
  for (const auto& r : list_checkpoints(volume)) {
    if (r.spmd) {
      remove_checkpoint(volume, r);
    }
  }
  for (const auto& r : list_checkpoints(volume)) {
    EXPECT_FALSE(r.spmd);
  }
}

TEST(CheckpointCatalog, VerifyPassesOnCleanStates) {
  Volume volume(16);
  write_states(volume, "alpha", 3, 2, CheckpointMode::kDrms);
  write_states(volume, "beta", 2, 1, CheckpointMode::kSpmd);
  for (const auto& record : list_checkpoints(volume)) {
    const auto result = verify_checkpoint(volume, record);
    EXPECT_TRUE(result.ok) << record.prefix << ": "
                           << (result.problems.empty()
                                   ? ""
                                   : result.problems.front());
  }
}

TEST(CheckpointCatalog, VerifyFlagsACorruptedArray) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 1, CheckpointMode::kDrms);
  auto f = volume.open(array_file_name("alpha.even", "u"));
  auto b = f.read_at(100, 1);
  b[0] ^= std::byte{0x10};
  f.write_at(100, b);

  const auto records = list_checkpoints(volume);
  ASSERT_EQ(records.size(), 1u);
  const auto result = verify_checkpoint(volume, records[0]);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems[0].find("stream CRC"), std::string::npos);
}

TEST(CheckpointCatalog, VerifyFlagsAMissingSegment) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 1, CheckpointMode::kDrms);
  // Snapshot the record while the state is whole, then break it: the
  // catalog itself drops states with missing files, so the verifier must
  // report the damage given a previously-taken record.
  const auto records = list_checkpoints(volume);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(list_checkpoints(volume).size() == 1);
  volume.remove(segment_file_name("alpha.even"));
  const auto result = verify_checkpoint(volume, records[0]);
  EXPECT_FALSE(result.ok);
  // And the catalog no longer offers the damaged state as a candidate.
  EXPECT_TRUE(list_checkpoints(volume).empty());
}

TEST(CheckpointCatalog, VerifyFlagsACorruptSpmdSegment) {
  Volume volume(16);
  write_states(volume, "beta", 2, 1, CheckpointMode::kSpmd);
  auto f = volume.open(spmd_task_file_name("beta.even", 1));
  auto b = f.read_at(50, 1);
  b[0] ^= std::byte{0x01};
  f.write_at(50, b);
  const auto records = list_checkpoints(volume);
  ASSERT_EQ(records.size(), 1u);
  const auto result = verify_checkpoint(volume, records[0]);
  EXPECT_FALSE(result.ok);
}

TEST(CheckpointCatalog, CommitStatusDescribesACleanState) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 1, CheckpointMode::kDrms);
  const auto check = commit_status(volume, "alpha.even", /*spmd=*/false);
  EXPECT_TRUE(check.committed) << (check.problems.empty()
                                       ? ""
                                       : check.problems.front());
  // The manifest lists the meta, the segment and the array file, each
  // with its exact on-volume size.
  ASSERT_GE(check.manifest.entries.size(), 3u);
  for (const auto& entry : check.manifest.entries) {
    EXPECT_TRUE(volume.exists(entry.name)) << entry.name;
    EXPECT_EQ(volume.backend().file_size(entry.name), entry.size);
  }
  // The manifest records the layout: the wrong one is not committed.
  EXPECT_FALSE(commit_status(volume, "alpha.even", /*spmd=*/true).committed);
  // A prefix with no state at all is simply uncommitted.
  EXPECT_FALSE(commit_status(volume, "nothing", /*spmd=*/false).committed);
}

TEST(CheckpointCatalog, TruncatedArrayFileIsExcludedAndFlagged) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 2, CheckpointMode::kDrms);
  const auto records = list_checkpoints(volume);
  ASSERT_EQ(records.size(), 2u);
  ASSERT_EQ(latest_checkpoint(volume, "alpha")->prefix, "alpha.odd");

  // Truncate the newest state's array file to half its size; its meta
  // record stays perfectly readable — only the manifest size check can
  // tell the state is torn.
  const std::string victim = array_file_name("alpha.odd", "u");
  const std::uint64_t full = volume.backend().file_size(victim);
  volume.create(victim).write_zeros_at(0, full / 2);

  // The damaged state is no longer a restart candidate...
  const auto latest = latest_checkpoint(volume, "alpha");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->prefix, "alpha.even");
  EXPECT_EQ(latest->meta.sop, 1);
  // ...the verifier flags it, given the record taken while whole...
  for (const auto& record : records) {
    const auto verdict = verify_checkpoint(volume, record);
    EXPECT_EQ(verdict.ok, record.prefix != "alpha.odd");
  }
  // ...and the fsck scan reports it torn with its files reclaimable.
  bool flagged = false;
  for (const auto& state : fsck_scan(volume)) {
    if (state.prefix == "alpha.odd") {
      EXPECT_FALSE(state.committed);
      EXPECT_FALSE(state.reclaimable.empty());
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(CheckpointCatalog, MissingManifestMeansTorn) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 2, CheckpointMode::kDrms);
  // The meta and every data file of "alpha.odd" are intact; only the
  // commit manifest is gone — exactly a crash between the meta write and
  // publication. The state must not be offered for restart.
  volume.remove(commit_file_name("alpha.odd"));

  EXPECT_EQ(list_checkpoints(volume).size(), 1u);
  ASSERT_TRUE(latest_checkpoint(volume, "alpha").has_value());
  EXPECT_EQ(latest_checkpoint(volume, "alpha")->prefix, "alpha.even");

  bool flagged = false;
  for (const auto& state : fsck_scan(volume)) {
    if (state.prefix == "alpha.odd") {
      EXPECT_FALSE(state.committed);
      EXPECT_FALSE(state.reclaimable.empty());
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);

  // gc reclaims the torn files and leaves the committed state alone.
  EXPECT_GT(gc_torn_states(volume), 0);
  for (const auto& state : fsck_scan(volume)) {
    EXPECT_TRUE(state.committed) << state.prefix;
  }
  EXPECT_EQ(latest_checkpoint(volume, "alpha")->prefix, "alpha.even");
}

TEST(CheckpointCatalog, RemoveCheckpointDecommitsFirst) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 1, CheckpointMode::kDrms);
  const auto records = list_checkpoints(volume);
  ASSERT_EQ(records.size(), 1u);
  remove_checkpoint(volume, records.front());
  EXPECT_FALSE(volume.exists(commit_file_name("alpha.even")));
  // Nothing left behind for fsck to complain about.
  EXPECT_TRUE(fsck_scan(volume).empty());
}

TEST(CheckpointCatalog, RestartCandidatesAreSopDescending) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 3, CheckpointMode::kDrms);
  write_states(volume, "beta", 2, 1, CheckpointMode::kDrms);

  const auto candidates = restart_candidates(volume, "alpha");
  ASSERT_EQ(candidates.size(), 2u);  // SOP 3 overwrote SOP 1's prefix
  EXPECT_GE(candidates[0].meta.sop, candidates[1].meta.sop);
  EXPECT_EQ(candidates[0].meta.sop, 3);
  for (const auto& c : candidates) {
    EXPECT_EQ(c.meta.app_name, "alpha");
  }
  EXPECT_TRUE(restart_candidates(volume, "gamma").empty());
}

TEST(CheckpointCatalog, LatestSkipsCommittedButCorruptWhenHookSupplied) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 2, CheckpointMode::kDrms);
  ASSERT_EQ(latest_checkpoint(volume, "alpha")->prefix, "alpha.odd");

  // Flip one payload byte of the newest state: still COMMITTED (manifest
  // and sizes intact), but deep verification rejects it.
  auto f = volume.open(array_file_name("alpha.odd", "u"));
  auto b = f.read_at(64, 1);
  b[0] ^= std::byte{0xff};
  f.write_at(64, b);

  // Without the hook the corrupt state still wins (it is committed)...
  EXPECT_EQ(latest_checkpoint(volume, "alpha")->prefix, "alpha.odd");
  // ...with the hook, selection falls back to the older generation.
  const auto deep = [&](const CheckpointRecord& r) {
    return verify_checkpoint(volume, r, /*deep=*/true).ok;
  };
  const auto chosen = latest_checkpoint(volume, "alpha", "", deep);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->prefix, "alpha.even");
  EXPECT_EQ(chosen->meta.sop, 1);
}

TEST(CheckpointCatalog, ShallowVerifyMissesWhatDeepCatches) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 1, CheckpointMode::kDrms);
  const auto records = list_checkpoints(volume);
  ASSERT_EQ(records.size(), 1u);

  auto f = volume.open(array_file_name("alpha.even", "u"));
  auto b = f.read_at(128, 1);
  b[0] ^= std::byte{0x20};
  f.write_at(128, b);

  // Structural checks (sizes, headers) cannot see a bit flip...
  EXPECT_TRUE(verify_checkpoint(volume, records[0], /*deep=*/false).ok);
  // ...the content pass can.
  EXPECT_FALSE(verify_checkpoint(volume, records[0], /*deep=*/true).ok);
}

TEST(CheckpointCatalog, RetentionKeepsTheNewestK) {
  Volume volume(16);
  // Distinct prefixes so no SOP overwrites an older one: g1..g5.
  DrmsEnv env;
  env.storage = &volume.backend();
  DrmsProgram program("alpha", env, tiny_segment(), 2);
  TaskGroup group(placement_of(2));
  const auto result = group.run([&](TaskContext& ctx) {
    DrmsContext drms(program, ctx);
    drms.initialize();
    const std::array<Index, 3> lo{0, 0, 0};
    const std::array<Index, 3> hi{5, 5, 5};
    DistArray& u = drms.create_array("u", lo, hi);
    drms.distribute(u, DistSpec::block_auto(cube(6), 2,
                                            std::vector<Index>(3, 0)));
    for (int c = 1; c <= 5; ++c) {
      (void)drms.reconfig_checkpoint("alpha.g" + std::to_string(c));
    }
  });
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(restart_candidates(volume, "alpha").size(), 5u);

  EXPECT_EQ(gc_superseded_states(volume, "alpha", "", 2), 3);
  const auto kept = restart_candidates(volume, "alpha");
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].meta.sop, 5);
  EXPECT_EQ(kept[1].meta.sop, 4);
  // Nothing half-deleted for fsck to complain about.
  for (const auto& state : fsck_scan(volume)) {
    EXPECT_TRUE(state.committed) << state.prefix;
  }
  // keep_last_k < 1 clamps to 1: the newest state always survives.
  EXPECT_EQ(gc_superseded_states(volume, "alpha", "", 0), 1);
  ASSERT_EQ(restart_candidates(volume, "alpha").size(), 1u);
  EXPECT_EQ(restart_candidates(volume, "alpha")[0].meta.sop, 5);
  // Idempotent once within budget.
  EXPECT_EQ(gc_superseded_states(volume, "alpha", "", 2), 0);
}

TEST(CheckpointCatalog, RetentionLeavesOtherAppsAlone) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 2, CheckpointMode::kDrms);
  write_states(volume, "beta", 2, 2, CheckpointMode::kDrms);
  EXPECT_EQ(gc_superseded_states(volume, "alpha", "", 1), 1);
  EXPECT_EQ(restart_candidates(volume, "alpha").size(), 1u);
  EXPECT_EQ(restart_candidates(volume, "beta").size(), 2u);
}

TEST(CheckpointCatalog, PrefixFilterNarrowsTheScan) {
  Volume volume(16);
  write_states(volume, "alpha", 2, 2, CheckpointMode::kDrms);
  write_states(volume, "beta", 2, 2, CheckpointMode::kDrms);
  EXPECT_EQ(list_checkpoints(volume, "alpha").size(), 2u);
  EXPECT_EQ(list_checkpoints(volume, "beta").size(), 2u);
  EXPECT_EQ(list_checkpoints(volume).size(), 4u);
}

/// `image`, a [u32 crc][u64 size][body] record, with the body's last u64
/// set to `count` and its CRC made to match: CRC-consistent whatever it
/// claims.
std::vector<std::byte> with_last_count(const support::ByteBuffer& image,
                                       std::uint64_t count) {
  std::vector<std::byte> out(image.bytes().begin(), image.bytes().end());
  support::ByteBuffer field;
  field.put_u64(count);
  std::copy(field.bytes().begin(), field.bytes().end(), out.end() - 8);
  support::ByteBuffer crc;
  crc.put_u32(support::crc32c(std::span(out).subspan(4 + 8)));
  std::copy(crc.bytes().begin(), crc.bytes().end(), out.begin());
  return out;
}

constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 40;

TEST(CheckpointCatalog, MetaArrayCountBeyondItsRecordIsCorrupt) {
  // A CRC-consistent meta claiming 2^40 arrays, listed by its manifest at
  // its size and CRC: the reader refuses it before reserving for them.
  Volume volume(16);
  write_states(volume, "alpha", 2, 1, CheckpointMode::kDrms);
  CheckpointMeta meta;  // no arrays: the count is the body's last field
  meta.app_name = "alpha";
  const std::vector<std::byte> image =
      with_last_count(encode_checkpoint_meta(meta), kHugeCount);
  volume.create(meta_file_name("alpha.even")).write_at(0, image);
  std::vector<std::string> problems;
  CommitManifest manifest = *check_commit(volume, "alpha.even", problems);
  for (CommitEntry& e : manifest.entries) {
    if (e.name == meta_file_name("alpha.even")) {
      e.size = image.size();
      e.crc = support::crc32c(image);
    }
  }
  volume.create(commit_file_name("alpha.even"))
      .write_at(0, encode_commit_manifest(manifest).bytes());

  EXPECT_THROW((void)read_checkpoint_meta(volume, "alpha.even"),
               support::CorruptCheckpoint);
  const CommitCheck check = commit_status(volume, "alpha.even", false);
  EXPECT_FALSE(check.committed);
  ASSERT_FALSE(check.problems.empty());
  EXPECT_NE(check.problems[0].find("array count exceeds the record"),
            std::string::npos)
      << check.problems[0];
  EXPECT_TRUE(list_checkpoints(volume).empty());
  CheckpointRecord record;
  record.prefix = "alpha.even";
  EXPECT_EQ(verify_checkpoint(volume, record).problems, check.problems);
}

TEST(CheckpointCatalog, ManifestEntryCountBeyondItsRecordIsCorrupt) {
  // A CRC-consistent manifest claiming 2^40 entries makes its state torn;
  // it breaks no select, and fsck reports it.
  Volume volume(16);
  write_states(volume, "alpha", 2, 2, CheckpointMode::kDrms);
  volume.create(commit_file_name("alpha.odd"))
      .write_at(0, with_last_count(encode_commit_manifest(CommitManifest{}),
                                   kHugeCount));

  const CommitCheck check = commit_status(volume, "alpha.odd", false);
  EXPECT_FALSE(check.committed);
  ASSERT_FALSE(check.problems.empty());
  EXPECT_NE(check.problems[0].find("entry count exceeds the record"),
            std::string::npos)
      << check.problems[0];
  const auto records = list_checkpoints(volume);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].prefix, "alpha.even");
  bool flagged = false;
  for (const auto& state : fsck_scan(volume)) {
    if (state.prefix == "alpha.odd") {
      flagged = true;
      EXPECT_FALSE(state.committed);
    }
  }
  EXPECT_TRUE(flagged);
}

/// Restarts the SPMD states write_states leaves, on `tasks` tasks.
drms::rt::TaskGroupResult restart_spmd(Volume& volume,
                                       const std::string& app, int tasks,
                                       const std::string& prefix) {
  DrmsEnv env;
  env.storage = &volume.backend();
  env.mode = CheckpointMode::kSpmd;
  env.restart_prefix = prefix;
  DrmsProgram program(app, env, tiny_segment(), tasks);
  TaskGroup group(placement_of(tasks));
  return group.run([&](TaskContext& ctx) {
    DrmsContext drms(program, ctx);
    std::int64_t it = 0;
    drms.store().register_i64("it", &it);
    drms.initialize();
  });
}

TEST(CheckpointCatalog, SpmdTaskSizeBeyondItsFileIsCorrupt) {
  // Task 1's record head claims a body of 2^64 - 5 bytes, where offset,
  // head and size wrap around: verify reports it and the restart fails
  // typed, before either allocates.
  Volume volume(16);
  write_states(volume, "gamma", 2, 1, CheckpointMode::kSpmd);
  const auto records = list_checkpoints(volume);
  ASSERT_EQ(records.size(), 1u);
  ASSERT_TRUE(restart_spmd(volume, "gamma", 2, "gamma.even").completed);
  support::ByteBuffer size;
  size.put_u64(~std::uint64_t{0} - 4);
  volume.open(spmd_task_file_name("gamma.even", 1)).write_at(0, size.bytes());

  const std::string problem =
      spmd_task_file_name("gamma.even", 1) + ": truncated record body";
  for (const bool deep : {false, true}) {
    const VerifyResult v = verify_checkpoint(volume, records[0], deep);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.problems, std::vector<std::string>{problem}) << deep;
  }
  const auto restart = restart_spmd(volume, "gamma", 2, "gamma.even");
  EXPECT_FALSE(restart.completed);
  EXPECT_NE(restart.kill_reason.find(problem), std::string::npos)
      << restart.kill_reason;
}

TEST(CheckpointCatalog, SpmdTaskFilesOfDifferentSizesVerifyAndRestore) {
  // With shadow width 1, task 1 of block_auto(cube(6), 3) holds a larger
  // local section than tasks 0 and 2, and a zero segment model pads
  // nothing: the writer commits task files of different sizes, and the
  // meta's segment_bytes is task 0's. Deep verify checks each against its
  // manifest entry, and a 3-task restart is bit-exact.
  Volume volume(16);
  std::array<std::uint32_t, 3> before{};
  std::array<std::uint32_t, 3> after{};
  const auto run = [&](const std::string& restart,
                       std::array<std::uint32_t, 3>& crcs) {
    DrmsEnv env;
    env.storage = &volume.backend();
    env.mode = CheckpointMode::kSpmd;
    env.restart_prefix = restart;
    DrmsProgram program("gamma", env, AppSegmentModel{}, 3);
    TaskGroup group(placement_of(3));
    return group.run([&](TaskContext& ctx) {
      DrmsContext drms(program, ctx);
      drms.initialize();
      const std::array<Index, 3> lo{0, 0, 0};
      const std::array<Index, 3> hi{5, 5, 5};
      DistArray& u = drms.create_array("u", lo, hi);
      drms.distribute(u, DistSpec::block_auto(cube(6), 3,
                                              std::vector<Index>(3, 1)));
      if (!drms.restarted()) {
        drms::test::fill_assigned_tagged(u, ctx.rank());
        ctx.barrier();
        (void)drms.reconfig_checkpoint("gamma.even");
      }
      crcs[static_cast<std::size_t>(ctx.rank())] =
          support::crc32c(std::as_const(u.local(ctx.rank())).bytes());
    });
  };
  ASSERT_TRUE(run("", before).completed);
  const auto records = list_checkpoints(volume);
  ASSERT_EQ(records.size(), 1u);
  ASSERT_TRUE(records[0].spmd);
  const std::uint64_t task0 =
      volume.backend().file_size(spmd_task_file_name("gamma.even", 0));
  EXPECT_EQ(records[0].meta.segment_bytes, task0);
  EXPECT_GT(volume.backend().file_size(spmd_task_file_name("gamma.even", 1)),
            task0);

  const VerifyResult v = verify_checkpoint(volume, records[0], /*deep=*/true);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
  const auto restart = run("gamma.even", after);
  ASSERT_TRUE(restart.completed) << restart.kill_reason;
  EXPECT_EQ(after, before);
}

}  // namespace
