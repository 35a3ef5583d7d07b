// File-based work-stealing claims over a shared store directory. One board
// coordinates the buckets of one campaign generation (dist_board_key) among
// worker processes that share nothing but the filesystem.
//
// Protocol (all transitions are single atomic filesystem operations):
//
//   claim:  write b<k>.tmp.<tag>, then hard-link it to b<k>.claim and
//           unlink the temp. link(2) fails on an existing name, so exactly
//           one worker wins a race — a plain rename would silently clobber
//           the rival's claim. A winner that then finds b<k>.done (the
//           done rename below frees the claim name) gives the claim back.
//   steal:  a claim not freshened within stale_ms is abandoned (its owner
//           heartbeats as cells finish, so only dead/wedged owners go
//           stale). The stealer renames the stale claim to a graveyard
//           name — rename is atomic, so exactly one stealer wins — then
//           claims the bucket itself.
//   done:   the owner renames its claim to b<k>.done after the bucket's
//           cells are flushed to its journal segment. A done marker means
//           "every cell of this bucket is durable in some segment".
//
// Failure analysis for the one benign race: worker A claims, stalls long
// enough to be presumed dead, worker B steals and re-executes. If A then
// finishes, both appended identical cells (every cell is a pure function
// of its key) and A's mark_done may retire the claim B re-created — B's
// own mark_done then finds it gone and just ensures the done marker. Work
// is duplicated, results never diverge.
#pragma once

#include <cstdint>
#include <string>

namespace winofault {

class ClaimBoard {
 public:
  // Board for one campaign generation, rooted at
  // <store_dir>/claims_<board_key>. Creates the directory.
  ClaimBoard(const std::string& store_dir, std::uint64_t board_key,
             std::string worker_tag, std::int64_t stale_ms);

  // Atomically claims `bucket` for this worker; false if any rival already
  // holds a claim or done marker.
  bool try_claim(int bucket);

  // Takes over `bucket` if its current claim is stale; false when there is
  // no claim, the claim is fresh, or a rival stealer won the takeover.
  bool try_steal(int bucket);

  // Freshens the claim's timestamp so it is not presumed abandoned.
  void heartbeat(int bucket);

  // Marks `bucket` complete (claim -> done, atomic). Safe to call even if
  // the claim was stolen meanwhile — the done marker is still ensured.
  void mark_done(int bucket);

  bool is_done(int bucket) const;
  bool has_claim(int bucket) const;

  // False when the board directory could not be created: every claim will
  // fail, so callers must degrade to non-cooperative execution instead of
  // waiting for progress that can never come.
  bool usable() const { return usable_; }

  const std::string& dir() const { return dir_; }
  static std::string board_dir(const std::string& store_dir,
                               std::uint64_t board_key);

 private:
  std::string claim_path(int bucket) const;
  std::string done_path(int bucket) const;

  std::string dir_;
  std::string tag_;
  std::int64_t stale_ms_;
  bool usable_ = false;
};

}  // namespace winofault
