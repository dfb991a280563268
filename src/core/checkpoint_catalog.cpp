#include "core/checkpoint_catalog.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "core/delta_format.hpp"
#include "store/redundancy.hpp"
#include "support/byte_buffer.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"

namespace drms::core {

namespace {

/// "foo.bar.meta" -> "foo.bar"; nullopt when not a meta file.
std::optional<std::string> prefix_of_meta(const std::string& name,
                                          bool& spmd) {
  static const std::string kSpmdSuffix = ".spmd.meta";
  static const std::string kSuffix = ".meta";
  if (name.size() > kSpmdSuffix.size() &&
      name.compare(name.size() - kSpmdSuffix.size(), kSpmdSuffix.size(),
                   kSpmdSuffix) == 0) {
    spmd = true;
    return name.substr(0, name.size() - kSpmdSuffix.size());
  }
  if (name.size() > kSuffix.size() &&
      name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                   kSuffix) == 0) {
    spmd = false;
    return name.substr(0, name.size() - kSuffix.size());
  }
  return std::nullopt;
}

}  // namespace

CommitCheck commit_status(const store::StorageBackend& storage,
                          const std::string& prefix, bool spmd) {
  CommitCheck out;
  const std::string commit_name = commit_file_name(prefix);
  if (!storage.exists(commit_name)) {
    out.problems.push_back(commit_name + ": missing (state not committed)");
    return out;
  }
  try {
    out.manifest = read_commit_manifest(storage, prefix);
  } catch (const support::Error& e) {
    out.problems.push_back(e.what());
    return out;
  }
  if (out.manifest.spmd != spmd) {
    out.problems.push_back(commit_name +
                           ": manifest belongs to the other layout");
    return out;
  }
  for (const auto& e : out.manifest.entries) {
    if (!storage.exists(e.name)) {
      out.problems.push_back(e.name + ": listed in manifest but missing");
    } else if (storage.file_size(e.name) != e.size) {
      out.problems.push_back(e.name + ": size differs from manifest");
    }
  }
  // A delta generation is only as committed as every generation under it:
  // walk the base links and hold each member to the same standard, so a
  // broken chain disqualifies the whole tail (restart falls back, gc
  // reclaims).
  if (out.problems.empty() && !out.manifest.base_prefix.empty()) {
    std::set<std::string> seen{prefix};
    std::string cur = out.manifest.base_prefix;
    int depth = 0;
    while (!cur.empty() && out.problems.empty()) {
      if (++depth > wire::kMaxChainDepth) {
        out.problems.push_back("chain under '" + prefix +
                               "' exceeds the depth bound");
        break;
      }
      if (!seen.insert(cur).second) {
        out.problems.push_back("chain under '" + prefix + "' is cyclic at '" +
                               cur + "'");
        break;
      }
      if (!storage.exists(commit_file_name(cur))) {
        out.problems.push_back(commit_file_name(cur) +
                               ": chain base not committed");
        break;
      }
      CommitManifest base;
      try {
        base = read_commit_manifest(storage, cur);
      } catch (const support::Error& e) {
        out.problems.push_back(e.what());
        break;
      }
      if (base.spmd) {
        out.problems.push_back(commit_file_name(cur) +
                               ": chain base belongs to the SPMD layout");
        break;
      }
      for (const auto& e : base.entries) {
        if (!storage.exists(e.name)) {
          out.problems.push_back(e.name +
                                 ": listed in chain manifest but missing");
        } else if (storage.file_size(e.name) != e.size) {
          out.problems.push_back(e.name +
                                 ": size differs from chain manifest");
        }
      }
      cur = base.base_prefix;
    }
  }
  out.committed = out.problems.empty();
  return out;
}

std::vector<CheckpointRecord> list_checkpoints(
    const store::StorageBackend& storage, const std::string& prefix_filter) {
  std::vector<CheckpointRecord> records;
  for (const auto& name : storage.list(prefix_filter)) {
    bool spmd = false;
    const auto prefix = prefix_of_meta(name, spmd);
    if (!prefix.has_value()) {
      continue;
    }
    CheckpointRecord record;
    record.prefix = *prefix;
    record.spmd = spmd;
    if (!commit_status(storage, *prefix, spmd).committed) {
      continue;  // torn (crashed before publication): not a candidate
    }
    try {
      record.meta = spmd ? read_spmd_meta(storage, *prefix)
                         : read_checkpoint_meta(storage, *prefix);
      record.state_bytes = spmd ? spmd_state_size(storage, *prefix)
                                : drms_state_size(storage, *prefix);
    } catch (const support::Error&) {
      continue;  // torn meta or missing files: not a restart candidate
    }
    records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end(),
            [](const CheckpointRecord& a, const CheckpointRecord& b) {
              if (a.meta.sop != b.meta.sop) {
                return a.meta.sop < b.meta.sop;
              }
              return a.prefix < b.prefix;
            });
  return records;
}

std::vector<CheckpointRecord> restart_candidates(
    const store::StorageBackend& storage, const std::string& app_name,
    const std::string& prefix_filter) {
  std::vector<CheckpointRecord> out;
  for (auto& record : list_checkpoints(storage, prefix_filter)) {
    if (record.meta.app_name == app_name) {
      out.push_back(std::move(record));
    }
  }
  // list_checkpoints sorts SOP ascending; a supervisor wants newest first.
  std::reverse(out.begin(), out.end());
  return out;
}

std::optional<CheckpointRecord> latest_checkpoint(
    const store::StorageBackend& storage, const std::string& app_name,
    const std::string& prefix_filter, const DeepVerifyHook& deep_verify) {
  for (auto& record : restart_candidates(storage, app_name, prefix_filter)) {
    if (deep_verify && !deep_verify(record)) {
      continue;  // committed but corrupt: fall back to an older generation
    }
    return std::move(record);
  }
  return std::nullopt;
}

void remove_checkpoint(store::StorageBackend& storage,
                       const CheckpointRecord& record) {
  // Decommit first: the state must stop being a restart candidate before
  // its files start disappearing.
  decommit_checkpoint(storage, record.prefix);
  if (record.spmd) {
    storage.remove(spmd_meta_file_name(record.prefix));
    for (int r = 0; r < record.meta.task_count; ++r) {
      const std::string file = spmd_task_file_name(record.prefix, r);
      if (storage.exists(file)) {
        storage.remove(file);
      }
    }
    return;
  }
  storage.remove(meta_file_name(record.prefix));
  if (storage.exists(segment_file_name(record.prefix))) {
    storage.remove(segment_file_name(record.prefix));
  }
  for (const auto& a : record.meta.arrays) {
    for (const std::string& file :
         {array_file_name(record.prefix, a.name),
          delta_array_file_name(record.prefix, a.name)}) {
      if (storage.exists(file)) {
        storage.remove(file);
      }
    }
  }
}

namespace {

void check(bool condition, const std::string& what, VerifyResult& out) {
  if (!condition) {
    out.ok = false;
    out.problems.push_back(what);
  }
}

/// Verify a segment payload of the form [u64 size][u32 crc][body...].
/// Structural bounds checks always run; the body CRC only when `deep`.
void verify_sized_crc_record(const store::FileHandle& file,
                             std::uint64_t offset, const std::string& what,
                             bool deep, VerifyResult& out) {
  if (offset + 12 > file.size()) {
    check(false, what + ": truncated record header", out);
    return;
  }
  drms::support::ByteBuffer head =
      store::read_to_buffer(file, offset, 12);
  const std::uint64_t body_size = head.get_u64();
  const std::uint32_t crc = head.get_u32();
  if (offset + 12 + body_size > file.size()) {
    check(false, what + ": truncated record body", out);
    return;
  }
  if (!deep) {
    return;
  }
  const drms::support::ByteBuffer body =
      store::read_to_buffer(file, offset + 12, body_size);
  check(drms::support::crc32c(body.bytes()) == crc, what + ": CRC mismatch",
        out);
}

}  // namespace

VerifyResult verify_checkpoint(const store::StorageBackend& storage,
                               const CheckpointRecord& record, bool deep) {
  VerifyResult out;
  // Commit-manifest check first: a state that was never published (or
  // whose published file list no longer matches the volume) is torn.
  const CommitCheck commit =
      commit_status(storage, record.prefix, record.spmd);
  for (const auto& p : commit.problems) {
    check(false, p, out);
  }
  if (commit.committed) {
    // Content CRCs the manifest carries beyond the size checks above: the
    // meta record file (array streams are re-checked against the meta's
    // own CRCs below, which the manifest mirrors).
    const std::string meta_name = record.spmd
                                      ? spmd_meta_file_name(record.prefix)
                                      : meta_file_name(record.prefix);
    const CommitEntry* entry = commit.manifest.entry(meta_name);
    if (entry == nullptr) {
      check(false, meta_name + ": not listed in commit manifest", out);
    } else if (deep && entry->has_crc) {
      const auto file = storage.open(meta_name);
      const support::ByteBuffer bytes =
          store::read_to_buffer(file, 0, file.size());
      check(support::crc32c(bytes.bytes()) == entry->crc,
            meta_name + ": CRC differs from manifest", out);
    }
  }
  if (record.spmd) {
    for (int r = 0; r < record.meta.task_count; ++r) {
      const std::string name = spmd_task_file_name(record.prefix, r);
      if (!storage.exists(name)) {
        check(false, name + ": missing", out);
        continue;
      }
      const auto file = storage.open(name);
      check(file.size() == record.meta.segment_bytes,
            name + ": unexpected size", out);
      verify_sized_crc_record(file, 0, name, deep, out);
    }
    return out;
  }

  // DRMS state: the single segment plus one file per array.
  const std::string seg_name = segment_file_name(record.prefix);
  if (!storage.exists(seg_name)) {
    check(false, seg_name + ": missing", out);
  } else {
    const auto seg = storage.open(seg_name);
    check(seg.size() == record.meta.segment_bytes,
          seg_name + ": unexpected size", out);
    if (seg.size() >= wire::kSegmentHeaderBytes) {
      support::ByteBuffer header =
          store::read_to_buffer(seg, 0, wire::kSegmentHeaderBytes);
      check(header.get_u32() == wire::kSegmentMagic,
            seg_name + ": bad magic", out);
      check(header.get_u32() == wire::kSegmentVersion,
            seg_name + ": bad version", out);
      (void)header.get_u64();  // replicated size
      check(header.get_u64() == seg.size(),
            seg_name + ": header/size mismatch", out);
      // The replicated payload carries its own sized CRC record.
      verify_sized_crc_record(seg, wire::kSegmentHeaderBytes, seg_name,
                              deep, out);
    } else {
      check(false, seg_name + ": too small for a header", out);
    }
  }
  if (record.meta.kind == GenerationKind::kDelta) {
    // Delta generation: each array's delta file carries per-block CRCs
    // (raw + stored) behind a framed index; verify_delta_file checks the
    // structure always and every block's round trip when deep.
    for (const auto& a : record.meta.arrays) {
      const std::string name = delta_array_file_name(record.prefix, a.name);
      if (!verify_delta_file(storage, name, a.stream_bytes, deep,
                             out.problems)) {
        out.ok = false;
      }
    }
    // The state is only restorable through its chain: the walk must
    // resolve (cycle/commit checks), and the base must itself verify —
    // recursing through the base covers every generation down to the
    // full dump exactly once.
    try {
      (void)resolve_checkpoint_chain(storage, record.prefix);
      CheckpointRecord base;
      base.prefix = record.meta.base_prefix;
      base.spmd = false;
      base.meta = read_checkpoint_meta(storage, base.prefix);
      const VerifyResult base_result =
          verify_checkpoint(storage, base, deep);
      for (const auto& p : base_result.problems) {
        check(false, "chain: " + p, out);
      }
    } catch (const support::Error& e) {
      check(false, e.what(), out);
    }
    return out;
  }
  for (const auto& a : record.meta.arrays) {
    const std::string name = array_file_name(record.prefix, a.name);
    if (!storage.exists(name)) {
      check(false, name + ": missing", out);
      continue;
    }
    const auto file = storage.open(name);
    check(file.size() == a.stream_bytes, name + ": unexpected size", out);
    if (deep && file.size() == a.stream_bytes) {
      const support::ByteBuffer bytes =
          store::read_to_buffer(file, 0, file.size());
      check(support::crc32c(bytes.bytes()) == a.stream_crc,
            name + ": stream CRC mismatch", out);
    }
  }
  return out;
}

namespace {

/// Which state a file belongs to, derived from its name alone (fsck must
/// classify files whose meta/manifest may be unreadable).
struct ClassifiedFile {
  std::string prefix;
  enum class Kind { kDrms, kSpmd, kCommit } kind;
};

bool ends_with(const std::string& name, const std::string& suffix) {
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

std::optional<ClassifiedFile> classify_state_file(const std::string& name) {
  using Kind = ClassifiedFile::Kind;
  static const std::string kCommit = ".commit";
  static const std::string kSpmdMeta = ".spmd.meta";
  static const std::string kSpmdTask = ".spmd.task";
  static const std::string kMeta = ".meta";
  static const std::string kSegment = ".segment";
  static const std::string kArray = ".array.";
  if (ends_with(name, kCommit)) {
    return ClassifiedFile{name.substr(0, name.size() - kCommit.size()),
                          Kind::kCommit};
  }
  if (ends_with(name, kSpmdMeta)) {
    return ClassifiedFile{name.substr(0, name.size() - kSpmdMeta.size()),
                          Kind::kSpmd};
  }
  const std::size_t task_pos = name.rfind(kSpmdTask);
  if (task_pos != std::string::npos &&
      task_pos + kSpmdTask.size() < name.size()) {
    const std::string tail = name.substr(task_pos + kSpmdTask.size());
    if (std::all_of(tail.begin(), tail.end(),
                    [](char c) { return c >= '0' && c <= '9'; })) {
      return ClassifiedFile{name.substr(0, task_pos), Kind::kSpmd};
    }
  }
  if (ends_with(name, kMeta)) {
    return ClassifiedFile{name.substr(0, name.size() - kMeta.size()),
                          Kind::kDrms};
  }
  if (ends_with(name, kSegment)) {
    return ClassifiedFile{name.substr(0, name.size() - kSegment.size()),
                          Kind::kDrms};
  }
  const std::size_t array_pos = name.find(kArray);
  if (array_pos != std::string::npos && array_pos > 0) {
    return ClassifiedFile{name.substr(0, array_pos), Kind::kDrms};
  }
  static const std::string kDelta = ".delta.";
  const std::size_t delta_pos = name.find(kDelta);
  if (delta_pos != std::string::npos && delta_pos > 0) {
    return ClassifiedFile{name.substr(0, delta_pos), Kind::kDrms};
  }
  return std::nullopt;
}

std::uint64_t safe_file_size(const store::StorageBackend& storage,
                             const std::string& name) {
  try {
    return storage.file_size(name);
  } catch (const support::Error&) {
    return 0;
  }
}

}  // namespace

std::vector<FsckState> fsck_scan(const store::StorageBackend& storage,
                                 const std::string& prefix_filter) {
  struct Group {
    std::vector<std::string> drms_files;
    std::vector<std::string> spmd_files;
    bool has_commit = false;
  };
  struct FragGroup {
    std::set<int> present;
    int expected = 0;
  };
  std::map<std::string, Group> groups;
  // prefix -> fragment base -> set summary. Keyed off the *base* name's
  // classification so fragments report under the state that owns them.
  std::map<std::string, std::map<std::string, FragGroup>> frag_groups;
  for (const auto& name : storage.list(prefix_filter)) {
    // Redundancy fragments ("<base>#f<k>") are physical fast-tier files,
    // not state files: classify them by their base name and keep them out
    // of the torn/committed grouping entirely.
    if (const auto frag = store::parse_fragment_name(name)) {
      const auto base_class = classify_state_file(frag->base);
      const std::string owner =
          base_class.has_value() ? base_class->prefix : frag->base;
      FragGroup& fg = frag_groups[owner][frag->base];
      if (const auto header = store::read_fragment_header(storage, name)) {
        fg.present.insert(frag->index);
        fg.expected = std::max(
            fg.expected, static_cast<int>(header->fragment_count));
      }
      continue;
    }
    const auto c = classify_state_file(name);
    if (!c.has_value()) {
      continue;
    }
    Group& g = groups[c->prefix];
    switch (c->kind) {
      case ClassifiedFile::Kind::kCommit:
        g.has_commit = true;
        break;
      case ClassifiedFile::Kind::kSpmd:
        g.spmd_files.push_back(name);
        break;
      case ClassifiedFile::Kind::kDrms:
        g.drms_files.push_back(name);
        break;
    }
  }

  std::vector<FsckState> out;
  const auto reclaim = [&](FsckState& s, const std::string& file) {
    s.reclaimable.push_back(file);
    s.reclaimable_bytes += safe_file_size(storage, file);
  };
  for (auto& [prefix, g] : groups) {
    std::optional<CommitManifest> manifest;
    std::string manifest_problem;
    if (g.has_commit) {
      try {
        manifest = read_commit_manifest(storage, prefix);
      } catch (const support::Error& e) {
        manifest_problem = e.what();
      }
    }
    if (manifest.has_value()) {
      FsckState s;
      s.prefix = prefix;
      s.spmd = manifest->spmd;
      for (const auto& e : manifest->entries) {
        if (!storage.exists(e.name)) {
          s.problems.push_back(e.name + ": listed in manifest but missing");
        } else if (storage.file_size(e.name) != e.size) {
          s.problems.push_back(e.name + ": size differs from manifest");
        }
      }
      if (s.problems.empty() && !manifest->base_prefix.empty()) {
        // A delta whose chain is broken (base missing or torn) is not a
        // restorable state: report it torn so gc reclaims the stranded
        // tail. commit_status performs the full chain walk.
        const CommitCheck chain_check =
            commit_status(storage, prefix, manifest->spmd);
        for (const auto& p : chain_check.problems) {
          s.problems.push_back(p);
        }
      }
      s.committed = s.problems.empty();
      std::vector<std::string>& own =
          s.spmd ? g.spmd_files : g.drms_files;
      if (s.committed) {
        // Stray files in this state's namespace the manifest never
        // published (e.g. an array dropped before the prefix was reused).
        for (const auto& f : own) {
          if (manifest->entry(f) == nullptr) {
            s.problems.push_back(f + ": stray (not in commit manifest)");
            reclaim(s, f);
          }
        }
      } else {
        for (const auto& f : own) {
          reclaim(s, f);
        }
        reclaim(s, commit_file_name(prefix));
      }
      out.push_back(std::move(s));
      // Files of the OTHER layout under this prefix can never be covered
      // by the (single) manifest: torn.
      const std::vector<std::string>& other =
          manifest->spmd ? g.drms_files : g.spmd_files;
      if (!other.empty()) {
        FsckState t;
        t.prefix = prefix;
        t.spmd = !manifest->spmd;
        t.problems.push_back(
            "state files present but the commit manifest belongs to the "
            "other layout");
        for (const auto& f : other) {
          reclaim(t, f);
        }
        out.push_back(std::move(t));
      }
      continue;
    }
    // No (readable) manifest: everything under this prefix is torn.
    const std::string why =
        g.has_commit ? manifest_problem
                     : commit_file_name(prefix) +
                           ": missing (checkpoint crashed before "
                           "publication)";
    bool commit_attached = !g.has_commit;
    const auto emit_torn = [&](bool spmd,
                               const std::vector<std::string>& files) {
      if (files.empty()) {
        return;
      }
      FsckState s;
      s.prefix = prefix;
      s.spmd = spmd;
      s.problems.push_back(why);
      for (const auto& f : files) {
        reclaim(s, f);
      }
      if (!commit_attached) {
        reclaim(s, commit_file_name(prefix));
        commit_attached = true;
      }
      out.push_back(std::move(s));
    };
    emit_torn(false, g.drms_files);
    emit_torn(true, g.spmd_files);
    if (!commit_attached) {
      // An unreadable manifest with no state files left at all.
      FsckState s;
      s.prefix = prefix;
      s.problems.push_back(why);
      reclaim(s, commit_file_name(prefix));
      out.push_back(std::move(s));
    }
  }

  // Attach fragment-set completeness to the owning state; a prefix with
  // only fragments (fully-encoded fast tier) gets an encoded_only entry.
  for (auto& [prefix, bases] : frag_groups) {
    FsckState* target = nullptr;
    for (auto& s : out) {
      if (s.prefix == prefix) {
        target = &s;
        break;
      }
    }
    if (target == nullptr) {
      FsckState s;
      s.prefix = prefix;
      s.encoded_only = true;
      out.push_back(std::move(s));
      target = &out.back();
    }
    for (auto& [base, fg] : bases) {
      FsckFragmentSet fs;
      fs.base = base;
      fs.present = static_cast<int>(fg.present.size());
      fs.expected = fg.expected;
      // Both in-tree schemes tolerate one lost fragment per set.
      fs.recoverable = fg.expected > 0 && fs.present >= fg.expected - 1;
      if (!fs.recoverable) {
        target->problems.push_back(
            base + ": fragment set " + std::to_string(fs.present) + "/" +
            std::to_string(fs.expected) +
            " beyond scavenge tolerance");
      }
      target->fragment_sets.push_back(std::move(fs));
    }
  }
  return out;
}

int gc_torn_states(store::StorageBackend& storage,
                   const std::string& prefix_filter) {
  int removed = 0;
  for (const auto& s : fsck_scan(storage, prefix_filter)) {
    for (const auto& f : s.reclaimable) {
      try {
        storage.remove(f);
        ++removed;
      } catch (const support::IoError&) {
        // Vanished since the scan; reclaiming it was the goal anyway.
      }
    }
  }
  return removed;
}

int gc_superseded_states(store::StorageBackend& storage,
                         const std::string& app_name,
                         const std::string& prefix_filter, int keep_last_k,
                         std::span<const std::string> pinned) {
  const int keep = std::max(keep_last_k, 1);
  // restart_candidates is SOP descending: everything past index keep-1 is
  // superseded.
  const std::vector<CheckpointRecord> candidates =
      restart_candidates(storage, app_name, prefix_filter);
  // Chain closure of the keep set: a kept delta is only restorable
  // through its chain, so every generation under it survives too — a base
  // is never reclaimed while a committed delta depends on it.
  std::set<std::string> keep_set;
  for (std::size_t i = 0;
       i < candidates.size() && i < static_cast<std::size_t>(keep); ++i) {
    keep_set.insert(candidates[i].prefix);
    if (candidates[i].meta.kind == GenerationKind::kDelta) {
      try {
        for (const auto& member :
             resolve_checkpoint_chain(storage, candidates[i].prefix)) {
          keep_set.insert(member);
        }
      } catch (const support::Error&) {
        // Broken chain: the candidate would not have listed as committed;
        // nothing extra to protect.
      }
    }
  }
  // Pinned generations (a restore in flight, or the next attempt's
  // fallback target) survive regardless of their SOP rank: keep-newest
  // alone would reclaim an old-but-good generation the moment newer —
  // possibly corrupt but still committed — generations fill the keep
  // slots. Pins get the same chain closure as kept candidates.
  for (const std::string& pin : pinned) {
    keep_set.insert(pin);
    try {
      for (const auto& member : resolve_checkpoint_chain(storage, pin)) {
        keep_set.insert(member);
      }
    } catch (const support::Error&) {
      // Not a delta (single-element chain is fine) or already gone.
    }
  }
  int removed = 0;
  for (std::size_t i = static_cast<std::size_t>(keep);
       i < candidates.size(); ++i) {
    if (keep_set.contains(candidates[i].prefix)) {
      continue;  // a kept delta still chains through this generation
    }
    remove_checkpoint(storage, candidates[i]);
    ++removed;
  }
  return removed;
}

}  // namespace drms::core
