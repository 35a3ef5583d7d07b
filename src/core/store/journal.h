// Append-only binary journal of finished campaign cells. One cell is the
// integer tallies of one (point, image) unit over all of that point's
// trials — the unit of work CampaignRunner schedules — keyed by
// (campaign_point_hash, image index). Because every (point, image, trial)
// derives its fault stream from (point.seed, image, trial) alone, the
// tallies are a pure function of the key within one environment, so cells
// recovered from a previous (possibly killed) process are bit-identical to
// re-executing them.
//
// Durability model: each cell is one fixed-size record (CRC'd over its
// fields plus the environment hash) appended and flushed as the cell
// finishes. A process killed mid-write leaves at most one torn trailing
// record, which recovery detects (short read or CRC mismatch) and truncates
// away; every earlier record is intact. A file whose header doesn't match
// the environment is discarded wholesale — stale state is never served.
//
// Segmented layout (core/dist): a distributed worker opens the canonical
// journal read-only and appends to its own *segment* —
// campaign_<env>.<tag>.seg, same header/record format — so N writers never
// contend on one file and a torn segment can only lose its own tail. The
// coordinator later folds every segment back into the canonical journal
// (core/dist/merge.h), deduplicating by cell key.
//
// Cost ledger (optional): a cell may be followed by a *cost record* — same
// 40-byte framing, CRC computed in a separate domain so readers
// distinguish the two kinds without a format bump — carrying the cell's
// measured replay wall-microseconds and the sum of squared per-trial flip
// counts (together with the cell's own tallies, the per-cell variance the
// adaptive planner needs). Journals written without cost records parse
// unchanged, so pre-ledger files replay bit-identically; a torn or absent
// cost record degrades to "cost unknown" (dist falls back to estimates),
// never to a lost cell. Costs are OBSERVATION-ONLY: they weight dist
// bucket planning, never results.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace winofault {

struct JournalCell {
  std::uint64_t point_hash = 0;
  std::int64_t image = 0;
  std::int64_t correct = 0;  // correct predictions over the point's trials
  std::int64_t flips = 0;    // injected bit flips over the point's trials
};

// Measured execution cost of one cell. `wall_us` is wall-clock and thus
// nondeterministic across runs — which is safe precisely because nothing
// derived from it ever feeds a result (cells are pure functions of their
// key). `flips_sq` is the exact integer sum of squared per-trial flip
// counts, deterministic like the tallies themselves.
struct JournalCost {
  std::uint64_t point_hash = 0;
  std::int64_t image = 0;
  std::int64_t wall_us = 0;   // measured replay wall-clock, microseconds
  std::int64_t flips_sq = 0;  // sum over trials of (flips in trial)^2
};

// Map key of one cell — the dedup identity shared by recovery, lookup, and
// segment merging.
std::uint64_t journal_cell_key(std::uint64_t point_hash, std::int64_t image);

class ResultJournal {
 public:
  enum class Mode {
    kAppend,    // recover + repair + open for appending (exclusive writer)
    kReadOnly,  // recover only: never rewrites or appends — the mode for
                // readers that do not own the file (distributed workers
                // reading the canonical journal another process will merge)
  };

  // Opens (creating or recovering) the journal for environment `env_hash`
  // under `dir`. Recovery loads every intact record; in kAppend mode a
  // corrupt header or torn tail is repaired in place. A non-empty
  // `segment_tag` selects that worker's segment file instead of the
  // canonical journal.
  ResultJournal(const std::string& dir, std::uint64_t env_hash,
                Mode mode = Mode::kAppend, const std::string& segment_tag = {});
  ~ResultJournal();
  ResultJournal(const ResultJournal&) = delete;
  ResultJournal& operator=(const ResultJournal&) = delete;

  // Finished cell for (point_hash, image), if known. Thread-safe.
  bool lookup(std::uint64_t point_hash, std::int64_t image,
              JournalCell* cell = nullptr) const;

  // Appends a finished cell and flushes it (thread-safe). The cell also
  // joins the in-memory map, so a later lookup through this same handle —
  // e.g. a sequential-adaptive consumer whose runner kept it open — sees it
  // without re-reading the file. A non-null `cost` appends the cell's cost
  // record immediately after (one flush covers both).
  void append(const JournalCell& cell, const JournalCost* cost = nullptr);

  // Measured cost for (point_hash, image), if the journal carries one.
  // Thread-safe. Cells without cost records simply miss here.
  bool lookup_cost(std::uint64_t point_hash, std::int64_t image,
                   JournalCost* cost = nullptr) const;

  // Per-point aggregate of every recovered/appended cost record:
  // point_hash -> (total measured wall_us, number of measured cells).
  // This is what dist bucket planning consumes — every worker reads the
  // same read-only canonical journal, so the aggregates (and therefore
  // the bucket weights) are identical across workers.
  struct PointCost {
    std::int64_t wall_us = 0;
    std::int64_t cells = 0;
  };
  std::unordered_map<std::uint64_t, PointCost> point_costs() const;

  std::int64_t cost_records() const;

  // False when the journal file could not be opened for appending (or a
  // write failed): recovered cells are still served, but new cells will
  // not persist — callers should not defer work expecting a resume.
  // Always false in kReadOnly mode.
  bool can_append() const { return file_ != nullptr; }

  // Durability barrier: fsyncs the append handle. False when not open for
  // appending or the sync failed. The segment-merge path calls this before
  // retiring a folded segment — deleting the only durable copy of its
  // cells on the strength of an unsynced append would turn a power cut
  // into data loss.
  bool sync();

  // Cells recovered from disk when the journal was opened (appends since
  // then are not counted).
  std::int64_t recovered_cells() const { return recovered_; }
  std::int64_t appended_cells() const { return appended_; }
  const std::string& path() const { return path_; }

  static std::string journal_path(const std::string& dir,
                                  std::uint64_t env_hash);
  static std::string segment_path(const std::string& dir,
                                  std::uint64_t env_hash,
                                  const std::string& tag);

  // One journal segment found on disk.
  struct SegmentRef {
    std::string path;
    std::uint64_t env_hash = 0;  // parsed from the file name
    std::string tag;
  };
  // Every campaign_<env>.<tag>.seg under `dir` (any environment).
  static std::vector<SegmentRef> list_segments(const std::string& dir);

  // Reads every intact record of the journal/segment at `path` for
  // `env_hash` into `out` (appending). Returns false when the file is
  // missing or its header is absent/foreign. `torn` (optional) reports
  // whether trailing bytes past the last intact record were dropped.
  // `unreadable` (optional) distinguishes "could not even open the file"
  // from a verified-foreign/corrupt header — a merge must leave the
  // former in place (its cells may be durable) but may discard the
  // latter.
  static bool read_cells(const std::string& path, std::uint64_t env_hash,
                         std::vector<JournalCell>* out, bool* torn = nullptr,
                         bool* unreadable = nullptr);

  // Incremental primitive behind read_cells and the segment read cache
  // (segment_cache.h): parses intact records starting at byte `offset` —
  // 0 validates the header first; any other value must be a record
  // boundary a previous call reported via `next_offset`. `next_offset`
  // receives the offset just past the last intact record, i.e. the resume
  // point once the file has grown (a torn trailing record is NOT consumed:
  // a later call re-validates it from the same offset, so a record that
  // completes between calls is picked up and one that never does keeps
  // being skipped). Cost-ledger records encountered along the way are
  // appended to `costs` when non-null and skipped otherwise (either way
  // they advance `next_offset`). Other parameters behave as in read_cells.
  static bool read_cells_from(const std::string& path, std::uint64_t env_hash,
                              std::int64_t offset,
                              std::vector<JournalCell>* out,
                              std::int64_t* next_offset = nullptr,
                              bool* torn = nullptr,
                              bool* unreadable = nullptr,
                              std::vector<JournalCost>* costs = nullptr);

 private:
  void recover_and_open(Mode mode);

  std::string path_;
  std::uint64_t env_hash_;
  std::unordered_map<std::uint64_t, JournalCell> cells_;
  std::unordered_map<std::uint64_t, JournalCost> costs_;  // same key space
  std::FILE* file_ = nullptr;  // append handle (null in kReadOnly)
  mutable std::mutex mu_;      // guards cells_, costs_, file_, appended_
  std::int64_t recovered_ = 0;
  std::int64_t appended_ = 0;
};

}  // namespace winofault
