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
// Older journals may also hold a cost record after each cell: the same
// 40-byte framing, with its CRC computed against env_hash ^ kCostCrcDomain.
// Readers skip those records, so such journals still replay every cell.
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
  // without re-reading the file.
  void append(const JournalCell& cell);

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

  // Reads every intact cell of the journal/segment at `path` for
  // `env_hash` into `out` (appending); cost records of older journals are
  // skipped. Returns false when the file is missing or its header is
  // absent/foreign. `torn` (optional) reports whether trailing bytes past
  // the last intact record were dropped. `unreadable` (optional)
  // distinguishes "could not even open the file" from a
  // verified-foreign/corrupt header — a merge must leave the former in
  // place (its cells may be durable) but may discard the latter.
  static bool read_cells(const std::string& path, std::uint64_t env_hash,
                         std::vector<JournalCell>* out, bool* torn = nullptr,
                         bool* unreadable = nullptr);

 private:
  void recover_and_open(Mode mode);

  std::string path_;
  std::uint64_t env_hash_;
  std::unordered_map<std::uint64_t, JournalCell> cells_;
  std::FILE* file_ = nullptr;  // append handle (null in kReadOnly)
  mutable std::mutex mu_;      // guards cells_, file_, appended_
  std::int64_t recovered_ = 0;
  std::int64_t appended_ = 0;
};

}  // namespace winofault
