#include "core/checkpoint_catalog.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "core/delta_format.hpp"
#include "store/chunk_copy.hpp"
#include "store/redundancy.hpp"
#include "support/error.hpp"

namespace drms::core {

namespace {

/// Which state a file belongs to, derived from its name alone (fsck must
/// classify files whose meta/manifest may be unreadable; the catalog
/// finds states by their commit files).
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

CommitCheck commit_status(const store::StorageBackend& storage,
                          const std::string& prefix,
                          std::optional<bool> spmd) {
  MetaCache metas;
  CheckpointChain chain = walk_checkpoint_chain(storage, prefix, spmd, metas);
  CommitCheck out;
  out.committed = chain.problems.empty();
  out.problems = std::move(chain.problems);
  if (!chain.manifests.empty()) {
    out.manifest = std::move(chain.manifests.back());
  }
  return out;
}

std::vector<CheckpointRecord> list_checkpoints(
    const store::StorageBackend& storage, const std::string& prefix_filter) {
  std::vector<CheckpointRecord> records;
  // A committed state is found by its manifest; each meta is read once
  // however many of the chains walked here share it.
  MetaCache metas;
  for (const auto& name : storage.list(prefix_filter)) {
    const auto file = classify_state_file(name);
    if (!file.has_value() || file->kind != ClassifiedFile::Kind::kCommit) {
      continue;
    }
    const CheckpointChain chain =
        walk_checkpoint_chain(storage, file->prefix, std::nullopt, metas);
    if (!chain.problems.empty()) {
      continue;  // torn, or on a broken chain: not a candidate
    }
    const CommitManifest& manifest = chain.manifests.back();
    CheckpointRecord record;
    record.prefix = file->prefix;
    record.spmd = manifest.spmd;
    try {
      record.meta = read_listed_meta(storage, record.prefix, manifest, metas);
    } catch (const support::Error&) {
      continue;  // torn meta: not a restart candidate
    }
    // The walk has just checked every listed file at its listed size.
    record.state_bytes = listed_state_size(manifest, record.prefix);
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

/// Restore's checks over one member of a committed chain, through the
/// readers restore uses; the chain walk has already found every listed
/// file at its listed size. Structural checks always run, and every byte
/// is read back when `deep`.
void verify_generation(const store::StorageBackend& storage,
                       const std::string& prefix,
                       const CommitManifest& manifest, MetaCache& metas,
                       bool deep, VerifyResult& out) {
  // Every file the meta names must be listed. A reader's error becomes a
  // problem line, and the checks go on.
  const auto read = [&](const std::string& name, const auto& reader) {
    if (manifest.entry(name) == nullptr) {
      check(false, name + ": not listed in commit manifest", out);
      return;
    }
    try {
      reader(storage.open(name), name);
    } catch (const support::Error& e) {
      check(false, e.what(), out);
    }
  };
  const CheckpointMeta* meta = nullptr;
  try {
    meta = &read_listed_meta(storage, prefix, manifest, metas);
  } catch (const support::Error& e) {
    check(false, e.what(), out);
    return;
  }
  if (manifest.spmd) {
    // The listing bounds the loop, whatever task count the meta claims.
    for (int r = 0; r < meta->task_count &&
                    static_cast<std::size_t>(r) < manifest.entries.size();
         ++r) {
      read(spmd_task_file_name(prefix, r),
           [&](const store::FileHandle& file, const std::string& name) {
             (void)(deep ? read_spmd_task_segment(file, r, name)
                         : read_sized_crc_record(file, 0, file.size(), name,
                                                 /*read_body=*/false));
           });
    }
    return;
  }
  read(segment_file_name(prefix),
       [&](const store::FileHandle& file, const std::string& name) {
         const std::uint64_t head = wire::kSegmentHeaderBytes;
         const SegmentHeader h = read_segment_header(file, name);
         (void)read_sized_crc_record(file, head, head + h.replicated_size,
                                     name, deep);
       });
  for (const ArrayMeta& a : meta->arrays) {
    if (meta->kind == GenerationKind::kDelta) {
      read(delta_array_file_name(prefix, a.name),
           [&](const store::FileHandle& file, const std::string& name) {
             out.ok &= verify_delta_file(file, name, deep, out.problems);
           });
      continue;
    }
    // One CRC-only pass through the copy kernel's bounded buffer.
    read(array_file_name(prefix, a.name),
         [&](const store::FileHandle& file, const std::string& name) {
           if (deep) {
             std::uint32_t crc = 0;
             store::CopySource stream{
                 .file = file, .length = file.size(), .crc = &crc};
             store::stream_xor({&stream, 1}, store::CopySink{});
             check(crc == a.stream_crc, name + ": stream CRC mismatch", out);
           }
         });
  }
}

}  // namespace

VerifyResult verify_checkpoint(const store::StorageBackend& storage,
                               const CheckpointRecord& record, bool deep) {
  VerifyResult out;
  // One walk checks every member's commit (a torn member, or a broken
  // chain, is all there is to report) and reads the base's meta.
  MetaCache metas;
  const CheckpointChain chain =
      walk_checkpoint_chain(storage, record.prefix, record.spmd, metas);
  for (const auto& p : chain.problems) {
    check(false, p, out);
  }
  for (std::size_t g = 0; chain.problems.empty() && g < chain.prefixes.size();
       ++g) {
    verify_generation(storage, chain.prefixes[g], chain.manifests[g], metas,
                      deep, out);
  }
  return out;
}

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
  MetaCache metas;
  for (auto& [prefix, g] : groups) {
    // The same walk as the catalog's: a delta whose chain is broken is
    // torn, so gc reclaims the stranded tail.
    CheckpointChain chain;
    if (g.has_commit) {
      chain = walk_checkpoint_chain(storage, prefix, std::nullopt, metas);
    }
    if (!chain.manifests.empty()) {
      const CommitManifest& manifest = chain.manifests.back();
      FsckState s;
      s.prefix = prefix;
      s.spmd = manifest.spmd;
      s.problems = chain.problems;
      s.committed = s.problems.empty();
      std::vector<std::string>& own =
          s.spmd ? g.spmd_files : g.drms_files;
      if (s.committed) {
        // Stray files in this state's namespace the manifest never
        // published (e.g. an array dropped before the prefix was reused).
        for (const auto& f : own) {
          if (manifest.entry(f) == nullptr) {
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
          manifest.spmd ? g.drms_files : g.spmd_files;
      if (!other.empty()) {
        FsckState t;
        t.prefix = prefix;
        t.spmd = !manifest.spmd;
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
        g.has_commit ? chain.problems.front()
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
  // is never reclaimed while a committed delta depends on it. A broken
  // chain keeps nothing beyond its own member.
  std::set<std::string> keep_set;
  const auto keep_chain = [&](const std::string& prefix) {
    keep_set.insert(prefix);
    try {
      for (const auto& member : resolve_checkpoint_chain(storage, prefix)) {
        keep_set.insert(member);
      }
    } catch (const support::Error&) {
    }
  };
  for (std::size_t i = 0;
       i < candidates.size() && i < static_cast<std::size_t>(keep); ++i) {
    if (candidates[i].meta.kind == GenerationKind::kDelta) {
      keep_chain(candidates[i].prefix);
    }
    keep_set.insert(candidates[i].prefix);
  }
  // Pinned generations (a restore in flight, or the next attempt's
  // fallback target) survive regardless of their SOP rank: keep-newest
  // alone would reclaim an old-but-good generation the moment newer —
  // possibly corrupt but still committed — generations fill the keep
  // slots. Pins get the same chain closure as kept candidates.
  for (const std::string& pin : pinned) {
    keep_chain(pin);
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
