#include "core/dist/merge.h"

#include <filesystem>
#include <map>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/telemetry/telemetry.h"
#include "core/store/journal.h"

namespace winofault {

namespace fs = std::filesystem;

MergeStats merge_campaign_segments(const std::string& dir) {
  telemetry::TraceSpan span("merge_segments", "dist");
  static telemetry::Counter& folds_metric = telemetry::counter(
      "winofault_dist_merge_folds_total",
      "worker segments folded into a canonical journal");
  static telemetry::Counter& merged_cells_metric = telemetry::counter(
      "winofault_dist_merge_cells_total",
      "cells appended to canonical journals by merges");
  MergeStats stats;
  const std::vector<ResultJournal::SegmentRef> segments =
      ResultJournal::list_segments(dir);

  // Group by environment so each canonical journal opens exactly once.
  std::map<std::uint64_t, std::vector<const ResultJournal::SegmentRef*>>
      by_env;
  for (const ResultJournal::SegmentRef& seg : segments) {
    by_env[seg.env_hash].push_back(&seg);
  }

  for (const auto& [env, refs] : by_env) {
    // The canonical journal opens lazily, on the first segment whose
    // contents actually verify: a corrupt segment whose *filename* claims
    // some environment must not leave a spurious header-only journal for
    // an environment that never existed.
    std::unique_ptr<ResultJournal> canonical;
    bool unwritable = false;
    for (const ResultJournal::SegmentRef* seg : refs) {
      std::vector<JournalCell> cells;
      bool torn = false;
      bool unreadable = false;
      if (!ResultJournal::read_cells(seg->path, env, &cells, &torn,
                                     &unreadable)) {
        if (unreadable) {
          // Could not even open it (permissions, transient I/O): its
          // cells may be perfectly durable — never delete what was not
          // verified corrupt. A later merge picks it up.
          WF_WARN << "merge: cannot read segment " << seg->path
                  << "; leaving it in place";
          ++stats.segments_unreadable;
          continue;
        }
        // Foreign or corrupt header: no record of this file can belong to
        // the environment its name claims — discard it.
        WF_WARN << "merge: rejecting corrupt segment " << seg->path;
        ++stats.segments_rejected;
        std::error_code ec;
        fs::remove(seg->path, ec);
        continue;
      }
      if (canonical == nullptr && !unwritable) {
        canonical = std::make_unique<ResultJournal>(dir, env);
        if (!canonical->can_append()) {
          WF_WARN << "merge: canonical journal for env " << env
                  << " is unwritable; leaving its segment(s) in place";
          ++stats.journals_unwritable;
          unwritable = true;
        }
      }
      if (unwritable) continue;  // cells stay durable in the segment
      if (torn) ++stats.segments_torn;
      for (const JournalCell& cell : cells) {
        if (canonical->lookup(cell.point_hash, cell.image)) {
          ++stats.cells_duplicate;  // identical by determinism
          continue;
        }
        // Check every append so a mid-segment disk-full neither counts
        // unpersisted cells as merged nor lets the segment be deleted.
        if (!canonical->append(cell)) {
          WF_WARN << "merge: canonical append failed; keeping " << seg->path;
          ++stats.journals_unwritable;
          unwritable = true;
          break;
        }
        ++stats.cells_merged;
        merged_cells_metric.add(1);
      }
      if (unwritable) continue;
      // Durability barrier before retirement: the segment is the only
      // durable copy of its cells until the canonical appends reach disk,
      // so removing it on the strength of buffered writes would turn a
      // power cut into data loss. A failed sync keeps the segment (a later
      // merge re-folds it — duplicates dedup away).
      if (!canonical->sync()) {
        WF_WARN << "merge: canonical sync failed; keeping " << seg->path;
        ++stats.journals_unwritable;
        unwritable = true;
        continue;
      }
      ++stats.segments_merged;
      folds_metric.add(1);
      std::error_code ec;
      fs::remove(seg->path, ec);
    }
  }

  // Claim boards are per-generation scratch: once segments are folded the
  // pending set changes, so no future worker can share these boards.
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    std::error_code stat_ec;  // entry may vanish under a concurrent rival
    if (name.rfind("claims_", 0) == 0 && it->is_directory(stat_ec)) {
      std::error_code rm;
      fs::remove_all(it->path(), rm);
      if (!rm) ++stats.claim_dirs_removed;
    }
  }
  return stats;
}

}  // namespace winofault
