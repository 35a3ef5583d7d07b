#include "core/dist/claim_board.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/iofault/iofault.h"
#include "common/logging.h"

namespace winofault {
namespace {

namespace fs = std::filesystem;

// Writes `contents` to `path` (truncating), flushed. Claim files are a few
// bytes; their contents only matter for debugging (who held the claim).
bool write_small_file(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = iofault::checked_fwrite(contents.data(), contents.size(), f,
                                          path) == contents.size() &&
                  std::fflush(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace

std::string ClaimBoard::board_dir(const std::string& store_dir,
                                  std::uint64_t board_key) {
  char name[32];
  std::snprintf(name, sizeof(name), "claims_%016llx",
                static_cast<unsigned long long>(board_key));
  return store_dir + "/" + name;
}

ClaimBoard::ClaimBoard(const std::string& store_dir, std::uint64_t board_key,
                       std::string worker_tag, std::int64_t stale_ms)
    : dir_(board_dir(store_dir, board_key)),
      tag_(std::move(worker_tag)),
      stale_ms_(stale_ms) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  usable_ = !ec;
  if (ec) {
    WF_WARN << "claim board: cannot create " << dir_
            << "; claims will all fail (" << ec.message() << ")";
  }
}

std::string ClaimBoard::claim_path(int bucket) const {
  return dir_ + "/b" + std::to_string(bucket) + ".claim";
}

std::string ClaimBoard::done_path(int bucket) const {
  return dir_ + "/b" + std::to_string(bucket) + ".done";
}

bool ClaimBoard::try_claim(int bucket) {
  if (is_done(bucket)) return false;
  const std::string tmp = claim_path(bucket) + ".tmp." + tag_;
  if (!write_small_file(tmp, tag_)) return false;
  // link(2) is the atomic commit: it fails if the claim name already
  // exists, so of any number of racing workers exactly one acquires it. An
  // injected link failure is indistinguishable from losing the race — the
  // bucket is simply not ours, and assembly self-heals any bucket no
  // worker claimed.
  std::error_code ec;
  iofault::checked_link(tmp, claim_path(bucket), ec);
  std::error_code ignore;
  fs::remove(tmp, ignore);
  if (ec) return false;
  // mark_done's rename frees the claim name, so a rival that finished the
  // bucket after the is_done check above lets the link succeed: give the
  // claim back rather than execute the bucket a second time.
  if (is_done(bucket)) {
    fs::remove(claim_path(bucket), ignore);
    return false;
  }
  return true;
}

bool ClaimBoard::try_steal(int bucket) {
  if (is_done(bucket)) return false;
  std::error_code ec;
  const auto mtime = fs::last_write_time(claim_path(bucket), ec);
  if (ec) return false;  // no claim to steal
  const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
      fs::file_time_type::clock::now() - mtime);
  if (age.count() < stale_ms_) return false;  // owner still alive
  // Atomic takeover: exactly one stealer wins the rename; losers see
  // ENOENT. The graveyard name is per-stealer so rivals cannot collide on
  // it either.
  const std::string grave = claim_path(bucket) + ".stolen." + tag_;
  iofault::checked_rename(claim_path(bucket), grave, ec);
  if (ec) return false;
  std::error_code ignore;
  fs::remove(grave, ignore);
  return try_claim(bucket);
}

void ClaimBoard::heartbeat(int bucket) {
  std::error_code ec;
  fs::last_write_time(claim_path(bucket), fs::file_time_type::clock::now(),
                      ec);
  // A heartbeat on a stolen claim freshens the thief's file instead —
  // harmless: both parties execute identical cells (see header).
}

void ClaimBoard::mark_done(int bucket) {
  std::error_code ec;
  fs::rename(claim_path(bucket), done_path(bucket), ec);
  if (ec && !is_done(bucket)) {
    // Claim stolen and not yet retired by the thief: the bucket's cells
    // are durable in OUR segment regardless, so the done marker is valid.
    write_small_file(done_path(bucket), tag_);
  }
}

bool ClaimBoard::is_done(int bucket) const {
  std::error_code ec;
  return fs::exists(done_path(bucket), ec);
}

bool ClaimBoard::has_claim(int bucket) const {
  std::error_code ec;
  return fs::exists(claim_path(bucket), ec);
}

}  // namespace winofault
