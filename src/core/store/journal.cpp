#include "core/store/journal.h"

#include <cctype>
#include <cstring>
#include <filesystem>

#include "common/hash.h"
#include "common/iofault/iofault.h"
#include "common/logging.h"
#include "common/telemetry/telemetry.h"

namespace winofault {
namespace {

// Store-tier telemetry: journal append volume (records and bytes). Cached
// references — appends sit on the campaign hot path.
telemetry::Counter& journal_appends_metric() {
  static telemetry::Counter& c = telemetry::counter(
      "winofault_store_journal_appends_total",
      "result cells appended to journals and segments");
  return c;
}
telemetry::Counter& journal_bytes_metric() {
  static telemetry::Counter& c = telemetry::counter(
      "winofault_store_journal_write_bytes_total",
      "bytes of journal/segment records appended");
  return c;
}

constexpr std::uint64_t kJournalMagic = 0x574a4c4600000001ULL;  // "WJLF" v1

// CRC domain of the cost records older journals interleave with their
// cells: same framing, CRC computed against env_hash XOR this constant.
// Readers recognize and skip them.
constexpr std::uint64_t kCostCrcDomain = 0x57464354434f5354ULL;  // "WFCTCOST"

// On-disk record: five native-endian u64 words, no padding.
struct RawRecord {
  std::uint64_t point_hash;
  std::uint64_t image;
  std::uint64_t correct;
  std::uint64_t flips;
  std::uint64_t crc;
};
static_assert(sizeof(RawRecord) == 40);

struct RawHeader {
  std::uint64_t magic;
  std::uint64_t env_hash;
};
static_assert(sizeof(RawHeader) == 16);

std::uint64_t record_crc(const RawRecord& r, std::uint64_t env_hash) {
  return Fnv64()
      .u64(env_hash)
      .u64(r.point_hash)
      .u64(r.image)
      .u64(r.correct)
      .u64(r.flips)
      .digest();
}

RawRecord cell_record(const JournalCell& cell, std::uint64_t env_hash) {
  RawRecord r{cell.point_hash, static_cast<std::uint64_t>(cell.image),
              static_cast<std::uint64_t>(cell.correct),
              static_cast<std::uint64_t>(cell.flips), 0};
  r.crc = record_crc(r, env_hash);
  return r;
}

std::string env_file_stem(std::uint64_t env_hash) {
  char name[32];
  std::snprintf(name, sizeof(name), "campaign_%016llx",
                static_cast<unsigned long long>(env_hash));
  return name;
}

}  // namespace

std::uint64_t journal_cell_key(std::uint64_t point_hash, std::int64_t image) {
  return Fnv64().u64(point_hash).i64(image).digest();
}

std::string ResultJournal::journal_path(const std::string& dir,
                                        std::uint64_t env_hash) {
  return dir + "/" + env_file_stem(env_hash) + ".journal";
}

std::string ResultJournal::segment_path(const std::string& dir,
                                        std::uint64_t env_hash,
                                        const std::string& tag) {
  return dir + "/" + env_file_stem(env_hash) + "." + tag + ".seg";
}

std::vector<ResultJournal::SegmentRef> ResultJournal::list_segments(
    const std::string& dir) {
  // Name layout: campaign_<16 hex>.<tag>.seg
  std::vector<SegmentRef> segments;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    constexpr std::size_t kPrefix = 9;  // "campaign_"
    constexpr std::size_t kHex = 16;
    if (name.size() < kPrefix + kHex + 2 + 4 ||
        name.compare(0, kPrefix, "campaign_") != 0 ||
        name.compare(name.size() - 4, 4, ".seg") != 0 ||
        name[kPrefix + kHex] != '.') {
      continue;
    }
    std::uint64_t env = 0;
    bool hex_ok = true;
    for (std::size_t i = kPrefix; i < kPrefix + kHex; ++i) {
      const char c = name[i];
      if (!std::isxdigit(static_cast<unsigned char>(c))) {
        hex_ok = false;
        break;
      }
      env = env * 16 +
            static_cast<std::uint64_t>(
                c <= '9' ? c - '0'
                         : std::tolower(static_cast<unsigned char>(c)) - 'a' +
                               10);
    }
    if (!hex_ok) continue;
    SegmentRef ref;
    ref.path = it->path().string();
    ref.env_hash = env;
    ref.tag = name.substr(kPrefix + kHex + 1,
                          name.size() - (kPrefix + kHex + 1) - 4);
    if (ref.tag.empty()) continue;
    segments.push_back(std::move(ref));
  }
  return segments;
}

bool ResultJournal::read_cells(const std::string& path,
                               std::uint64_t env_hash,
                               std::vector<JournalCell>* out, bool* torn,
                               bool* unreadable) {
  if (torn != nullptr) *torn = false;
  if (unreadable != nullptr) *unreadable = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (unreadable != nullptr) *unreadable = true;
    return false;
  }
  RawHeader header{};
  if (iofault::checked_fread(&header, sizeof(header), f, path) !=
          sizeof(header) ||
      header.magic != kJournalMagic || header.env_hash != env_hash) {
    std::fclose(f);
    return false;
  }
  std::int64_t read_end = static_cast<std::int64_t>(sizeof(RawHeader));
  RawRecord r{};
  // An injected read fault (EIO, bit flip) fails the CRC below, so a
  // chaosed read degrades exactly like a torn tail: intact prefix served,
  // the rest re-executed.
  while (iofault::checked_fread(&r, sizeof(r), f, path) == sizeof(r)) {
    if (r.crc == record_crc(r, env_hash)) {
      out->push_back(JournalCell{r.point_hash,
                                 static_cast<std::int64_t>(r.image),
                                 static_cast<std::int64_t>(r.correct),
                                 static_cast<std::int64_t>(r.flips)});
    } else if (r.crc != record_crc(r, env_hash ^ kCostCrcDomain)) {
      break;  // torn/corrupt tail
    }
    read_end += static_cast<std::int64_t>(sizeof(RawRecord));
  }
  if (torn != nullptr) {
    std::fseek(f, 0, SEEK_END);
    *torn = static_cast<std::int64_t>(std::ftell(f)) != read_end;
  }
  std::fclose(f);
  return true;
}

ResultJournal::ResultJournal(const std::string& dir, std::uint64_t env_hash,
                             Mode mode, const std::string& segment_tag)
    : path_(segment_tag.empty() ? journal_path(dir, env_hash)
                                : segment_path(dir, env_hash, segment_tag)),
      env_hash_(env_hash) {
  if (mode == Mode::kAppend) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  }
  recover_and_open(mode);
}

ResultJournal::~ResultJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void ResultJournal::recover_and_open(Mode mode) {
  // Pass 1: read every intact record of an existing file.
  std::vector<JournalCell> recovered;
  bool torn = false;
  const bool header_ok = read_cells(path_, env_hash_, &recovered, &torn);
  for (const JournalCell& cell : recovered) {
    cells_[journal_cell_key(cell.point_hash, cell.image)] = cell;
  }
  recovered_ = static_cast<std::int64_t>(cells_.size());

  if (mode == Mode::kReadOnly) return;  // never repair or append

  // A kill during a previous recovery rewrite can leave its temp file
  // behind; it was never renamed, so its contents are dead.
  {
    std::error_code ec;
    std::filesystem::remove(path_ + ".tmp", ec);
  }

  // Pass 2: open for appending — via a rewrite of header + every recovered
  // record when the existing file is absent, torn, or foreign. The rewrite
  // goes through a temp file + fsync + rename so neither a kill nor a
  // power cut during recovery can destroy the intact records of the
  // original journal (rename without fsync can publish an empty file after
  // a crash).
  if (!header_ok || torn) {
    const std::string tmp = path_ + ".tmp";
    std::FILE* out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr) {
      WF_WARN << "journal: cannot open " << tmp
              << " for writing; cells will not persist";
      return;
    }
    const RawHeader header{kJournalMagic, env_hash_};
    bool wrote = iofault::checked_fwrite(&header, sizeof(header), out, tmp) ==
                 sizeof(header);
    for (const auto& [key, cell] : cells_) {
      if (!wrote) break;
      const RawRecord r = cell_record(cell, env_hash_);
      wrote = iofault::checked_fwrite(&r, sizeof(r), out, tmp) == sizeof(r);
    }
    const bool flushed = wrote && iofault::checked_fsync(out, tmp);
    std::fclose(out);
    std::error_code ec;
    if (flushed) iofault::checked_rename(tmp, path_, ec);
    if (!flushed || ec) {
      WF_WARN << "journal: cannot replace " << path_
              << "; cells will not persist";
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    WF_WARN << "journal: cannot append to " << path_
            << "; cells will not persist";
  }
}

bool ResultJournal::lookup(std::uint64_t point_hash, std::int64_t image,
                           JournalCell* cell) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cells_.find(journal_cell_key(point_hash, image));
  if (it == cells_.end() || it->second.point_hash != point_hash ||
      it->second.image != image) {
    return false;
  }
  if (cell != nullptr) *cell = it->second;
  return true;
}

bool ResultJournal::append(const JournalCell& cell) {
  const RawRecord r = cell_record(cell, env_hash_);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return false;
  // A failed write (e.g. disk full) may leave a torn record that recovery
  // will truncate — along with everything appended after it. Stop claiming
  // durability at the first failure instead of silently losing every
  // later checkpoint.
  if (iofault::checked_fwrite(&r, sizeof(r), file_, path_) != sizeof(r) ||
      std::fflush(file_) != 0) {
    WF_WARN << "journal: write to " << path_
            << " failed; further cells will not persist";
    std::fclose(file_);
    file_ = nullptr;
    return false;
  }
  // A kill after this point loses nothing.
  cells_[journal_cell_key(cell.point_hash, cell.image)] = cell;
  journal_appends_metric().add(1);
  journal_bytes_metric().add(static_cast<std::int64_t>(sizeof(RawRecord)));
  return true;
}

bool ResultJournal::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return false;
  return iofault::checked_fsync(file_, path_);
}

}  // namespace winofault
