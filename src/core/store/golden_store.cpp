#include "core/store/golden_store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <cerrno>

#include "common/hash.h"
#include "common/iofault/iofault.h"
#include "common/logging.h"
#include "common/telemetry/events.h"
#include "common/telemetry/telemetry.h"

namespace winofault {
namespace {

// Store-tier telemetry labels, split per golden variant like the
// campaign-tier golden series (0 = clean silicon).
std::string shard_variant_labels(std::uint64_t variant) {
  if (variant == 0) return "variant=\"clean\"";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "variant=\"%016llx\"",
                static_cast<unsigned long long>(variant));
  return buf;
}

constexpr std::uint32_t kCodecVersion = 1;
constexpr std::uint64_t kShardMagic = 0x5747534600000001ULL;  // "WGSF" v1

// Shard header: six native-endian u64 words ahead of the codec payload.
struct ShardHeader {
  std::uint64_t magic;
  std::uint64_t env_hash;
  std::uint64_t image;
  std::uint64_t policy;
  std::uint64_t payload_size;
  std::uint64_t payload_crc;
};
static_assert(sizeof(ShardHeader) == 48);

void put_bytes(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}
template <typename T>
void put(std::string& out, T value) {
  put_bytes(out, &value, sizeof(value));
}

// Sequential reader over the payload; any over-read marks failure.
struct Reader {
  const std::string& buf;
  std::size_t pos = 0;
  bool ok = true;

  bool read_bytes(void* data, std::size_t size) {
    if (!ok || buf.size() - pos < size) return ok = false;
    std::memcpy(data, buf.data() + pos, size);
    pos += size;
    return true;
  }
  template <typename T>
  T get() {
    T value{};
    read_bytes(&value, sizeof(value));
    return value;
  }
};

void encode_tensor(std::string& out, const TensorI32& t) {
  const Shape& s = t.shape();
  put(out, s.n);
  put(out, s.c);
  put(out, s.h);
  put(out, s.w);
  put_bytes(out, t.data(),
            static_cast<std::size_t>(t.numel()) * sizeof(std::int32_t));
}

bool decode_tensor(Reader& r, TensorI32* out) {
  Shape s;
  s.n = r.get<std::int64_t>();
  s.c = r.get<std::int64_t>();
  s.h = r.get<std::int64_t>();
  s.w = r.get<std::int64_t>();
  if (!r.ok || s.n < 0 || s.c < 0 || s.h < 0 || s.w < 0) return false;
  // Dims are disk-sourced: bound the element count stepwise against the
  // remaining payload BEFORE multiplying, so crafted dims can neither
  // overflow the int64 product (UB) nor drive a huge allocation.
  const std::int64_t max_elems = static_cast<std::int64_t>(
      (r.buf.size() - r.pos) / sizeof(std::int32_t));
  std::int64_t numel = 1;
  for (const std::int64_t dim : {s.n, s.c, s.h, s.w}) {
    if (dim == 0) {
      numel = 0;
      break;
    }
    if (numel > max_elems / dim) return false;
    numel *= dim;
  }
  TensorI32 t(s);
  if (numel > 0 &&
      !r.read_bytes(t.data(),
                    static_cast<std::size_t>(numel) * sizeof(std::int32_t))) {
    return false;
  }
  *out = std::move(t);
  return true;
}

}  // namespace

std::string GoldenCodec::encode(const GoldenCache& golden) {
  std::string out;
  put(out, kCodecVersion);
  put(out, static_cast<std::uint8_t>(golden.policy_));
  put(out, golden.prediction_);
  put(out, static_cast<std::uint64_t>(golden.acts_.size()));
  for (const NodeOutput& node : golden.acts_) {
    encode_tensor(out, node.tensor);
    put(out, node.quant.scale);
    put(out, static_cast<std::uint8_t>(node.quant.dtype));
  }
  encode_tensor(out, golden.logits_);
  return out;
}

std::optional<GoldenCache> GoldenCodec::decode(const std::string& payload) {
  Reader r{payload};
  if (r.get<std::uint32_t>() != kCodecVersion) return std::nullopt;
  GoldenCache golden;
  golden.policy_ = static_cast<ConvPolicy>(r.get<std::uint8_t>());
  golden.prediction_ = r.get<std::int32_t>();
  const std::uint64_t nodes = r.get<std::uint64_t>();
  // Every node costs at least shape (32) + scale (8) + dtype (1) payload
  // bytes; bounding the count by that keeps a crafted header from driving
  // a huge acts_ allocation (bad_alloc) before the first decode failure.
  constexpr std::uint64_t kMinNodeBytes = 41;
  if (!r.ok || nodes > payload.size() / kMinNodeBytes) return std::nullopt;
  golden.acts_.resize(static_cast<std::size_t>(nodes));
  for (NodeOutput& node : golden.acts_) {
    if (!decode_tensor(r, &node.tensor)) return std::nullopt;
    node.quant.scale = r.get<double>();
    node.quant.dtype = static_cast<DType>(r.get<std::uint8_t>());
  }
  if (!decode_tensor(r, &golden.logits_)) return std::nullopt;
  if (!r.ok || r.pos != payload.size()) return std::nullopt;
  return golden;
}

GoldenStore::GoldenStore(std::string dir, std::uint64_t env_hash,
                         std::uint64_t byte_budget)
    : dir_(std::move(dir)), env_hash_(env_hash), byte_budget_(byte_budget) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    WF_WARN << "golden store: cannot create " << dir_
            << "; goldens will not spill (" << ec.message() << ")";
  }
  // Index every existing shard in the directory — all environments, not
  // just this one — oldest first. The byte budget is a property of the
  // directory: without cross-env accounting, a store dir shared by many
  // campaigns (fig2: 8 models) would hold budget x environments bytes, and
  // shards orphaned by a network/dataset change would never be reclaimed.
  std::vector<std::pair<std::filesystem::file_time_type, ShardRef>> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("golden_")) continue;
    if (name.ends_with(".tmp")) {  // kill mid-spill: reclaim the leftovers
      std::filesystem::remove(entry.path(), ec);
      continue;
    }
    if (!name.ends_with(".shard")) continue;
    const auto mtime = entry.last_write_time(ec);
    if (ec) continue;  // vanished/unstattable: never credit junk to bytes_
    const std::uintmax_t size = entry.file_size(ec);
    if (ec) continue;
    found.emplace_back(
        mtime,
        ShardRef{entry.path().string(), static_cast<std::uint64_t>(size)});
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [mtime, shard] : found) {
    bytes_ += shard.bytes;
    index_.push_back(std::move(shard));
  }
}

std::string GoldenStore::shard_path(std::int64_t image, ConvPolicy policy,
                                    std::uint64_t variant) const {
  char name[100];
  if (variant == 0) {
    std::snprintf(name, sizeof(name), "golden_%016llx_%lld_%d.shard",
                  static_cast<unsigned long long>(env_hash_),
                  static_cast<long long>(image), static_cast<int>(policy));
  } else {
    // Permanent-fault golden variant: the overlay digest in the name keys
    // the shard apart from the clean golden of the same (image, policy),
    // stably across dist workers and daemon sessions.
    std::snprintf(name, sizeof(name), "golden_%016llx_%lld_%d_v%016llx.shard",
                  static_cast<unsigned long long>(env_hash_),
                  static_cast<long long>(image), static_cast<int>(policy),
                  static_cast<unsigned long long>(variant));
  }
  return dir_ + "/" + name;
}

void GoldenStore::save(std::int64_t image, ConvPolicy policy,
                       const GoldenCache& golden,
                       std::uint64_t variant) noexcept {
  // ENOSPC degradation: once the disk is full the spill tier turns itself
  // off (warned once) and the campaign keeps computing — every further
  // save would fail the same way, and a rebuild-on-miss is always correct.
  if (spill_disabled_.load(std::memory_order_relaxed)) return;
  // The whole body is exception-guarded: the caller
  // (GoldenLru::get_or_build, on every golden it returns) relies on save
  // never throwing, and even the path strings / in-flight set below
  // allocate. A failed spill only costs a later rebuild.
  try {
    save_impl(image, policy, golden, variant);
  } catch (...) {
    WF_WARN << "golden store: spill failed; the entry will rebuild instead";
  }
}

void GoldenStore::disable_spills(const char* why) {
  if (!spill_disabled_.exchange(true)) {
    WF_WARN << "golden store: " << why << " under " << dir_
            << "; disabling the spill tier (campaign continues, evicted "
               "goldens rebuild on miss)";
  }
}

void GoldenStore::save_impl(std::int64_t image, ConvPolicy policy,
                            const GoldenCache& golden,
                            std::uint64_t variant) {
  const std::string path = shard_path(image, policy, variant);
  std::error_code ec;

  // Short-circuit BEFORE encoding: every cache hit of a stored run saves
  // a golden whose shard already exists, and serializing a multi-MB
  // payload just to discover that would waste that much CPU on every
  // lookup. The checks also make concurrent spills of the same key skip
  // instead of duplicating the index entry or piling a second budget
  // reservation on top.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::filesystem::exists(path, ec)) return;  // deterministic content
    if (!in_flight_.insert(path).second) return;    // same-key in flight
  }

  // From here on, every exit must release the in-flight entry and any
  // budget reservation — and a spill must degrade to a warning, never an
  // exception escaping into the worker pool (encode can throw bad_alloc
  // on a paper-scale golden under memory pressure).
  std::uint64_t reserved = 0;
  std::string tmp;
  bool published = false;
  try {
    const std::string payload = GoldenCodec::encode(golden);
    // The header's env word binds the variant too (env_hash ^ variant):
    // variant 0 keeps the pre-registry header byte-identical, and a shard
    // renamed across variants fails the binding check like a stale env.
    ShardHeader header{kShardMagic,
                       env_hash_ ^ variant,
                       static_cast<std::uint64_t>(image),
                       static_cast<std::uint64_t>(policy),
                       payload.size(),
                       fnv64(payload.data(), payload.size())};
    const std::uint64_t total = sizeof(header) + payload.size();
    if (total <= byte_budget_) {  // a shard over budget alone never fits
      // Reserve budget under the lock, but keep the (potentially
      // multi-MB) file write outside it so concurrent spills from the
      // worker pool don't serialize on each other's disk I/O.
      {
        std::lock_guard<std::mutex> lock(mu_);
        while (bytes_ + total > byte_budget_ && !index_.empty()) {
          const ShardRef oldest = index_.front();
          index_.erase(index_.begin());
          bytes_ -= std::min(bytes_.load(), oldest.bytes);
          std::filesystem::remove(oldest.path, ec);
          budget_evictions_.fetch_add(1, std::memory_order_relaxed);
        }
        bytes_ += total;
        reserved = total;
      }

      // Write via a unique temp name + rename: a kill mid-spill leaves no
      // half-shard under the final name (the CRC would reject one
      // regardless), and concurrent same-key writers never clobber each
      // other's temp. The pid is part of the name because distributed
      // workers (core/dist) share this directory across processes, and
      // every process's serial starts at the same value.
      static std::atomic<std::uint64_t> tmp_serial{0};
      tmp = path + "." + std::to_string(static_cast<long>(::getpid())) +
            "." + std::to_string(tmp_serial.fetch_add(1) + 1) + ".tmp";
      std::FILE* f = std::fopen(tmp.c_str(), "wb");
      bool wrote = f != nullptr;
      if (wrote) {
        errno = 0;
        wrote = iofault::checked_fwrite(&header, sizeof(header), f, tmp) ==
                    sizeof(header) &&
                (payload.empty() ||
                 iofault::checked_fwrite(payload.data(), payload.size(), f,
                                         tmp) == payload.size());
        // fsync before rename: publication is the rename, and a crash
        // right after it must not be able to surface a zero-length or
        // partial shard under the final name. On ENOSPC the failure
        // surfaces here, and a truncated temp must never be renamed into
        // place.
        wrote = iofault::checked_fsync(f, tmp) && wrote;
        const int saved_errno = errno;
        wrote = (std::fclose(f) == 0) && wrote;
        if (!wrote && (saved_errno == ENOSPC || errno == ENOSPC)) {
          disable_spills("disk full (ENOSPC)");
        }
      }

      std::lock_guard<std::mutex> lock(mu_);
      if (wrote && !std::filesystem::exists(path, ec)) {
        iofault::checked_rename(tmp, path, ec);
        if (!ec) {
          index_.push_back(ShardRef{path, total});
          spills_.fetch_add(1, std::memory_order_relaxed);
          telemetry::counter("winofault_store_shard_spills_total",
                             "golden shards spilled to disk",
                             shard_variant_labels(variant))
              .add(1);
          telemetry::counter("winofault_store_shard_write_bytes_total",
                             "bytes written as golden shards")
              .add(static_cast<std::int64_t>(total));
          in_flight_.erase(path);
          published = true;
        }
      }
    }
  } catch (...) {
    WF_WARN << "golden store: spill of " << path
            << " failed; the entry will rebuild instead";
  }
  if (published) return;
  if (!tmp.empty()) std::filesystem::remove(tmp, ec);
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_.erase(path);
  bytes_ -= std::min(bytes_.load(), reserved);
}

std::optional<GoldenCache> GoldenStore::load(std::int64_t image,
                                             ConvPolicy policy,
                                             std::uint64_t variant) {
  const std::string path = shard_path(image, policy, variant);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;  // absent: plain miss, no reject

  ShardHeader header{};
  std::string payload;
  bool ok = iofault::checked_fread(&header, sizeof(header), f, path) ==
                sizeof(header) &&
            header.magic == kShardMagic &&
            header.env_hash == (env_hash_ ^ variant) &&
            header.image == static_cast<std::uint64_t>(image) &&
            header.policy == static_cast<std::uint64_t>(policy);
  if (ok) {
    // The header carries no CRC over itself, so payload_size is untrusted:
    // bound it by the actual file size before allocating (a corrupted size
    // field must reject the shard, not throw). The exact-size check also
    // rejects truncated and trailing-garbage shards.
    std::fseek(f, 0, SEEK_END);
    const long file_size = std::ftell(f);
    std::fseek(f, static_cast<long>(sizeof(header)), SEEK_SET);
    ok = file_size >= 0 &&
         header.payload_size ==
             static_cast<std::uint64_t>(file_size) - sizeof(header);
  }
  // Allocation sizes below are bounded only by the (possibly corrupt)
  // file itself, so bad_alloc is a corruption symptom like a CRC
  // mismatch: catch it and fall through to the reject-and-delete path
  // instead of letting it escape into the worker pool.
  if (ok) {
    try {
      payload.resize(static_cast<std::size_t>(header.payload_size));
      ok = payload.empty() ||
           iofault::checked_fread(payload.data(), payload.size(), f, path) ==
               payload.size();
      ok = ok && fnv64(payload.data(), payload.size()) == header.payload_crc;
    } catch (...) {
      ok = false;
    }
  }
  std::fclose(f);

  std::optional<GoldenCache> golden;
  if (ok) {
    try {
      golden = GoldenCodec::decode(payload);
    } catch (...) {
      golden.reset();
    }
  }
  if (!golden.has_value()) {
    // Corrupt/stale shard: quarantine it (rename to *.quarantine, which the
    // startup indexer ignores) so the entry rebuilds (and respills) cleanly
    // instead of failing every future restore, while the evidence survives
    // for post-mortem instead of being destroyed. Deletion is the fallback
    // when even the rename fails.
    WF_WARN << "golden store: quarantining corrupt shard " << path;
    rejects_.fetch_add(1, std::memory_order_relaxed);
    quarantines_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("winofault_store_shard_quarantines_total",
                       "corrupt shards quarantined at restore")
        .add(1);
    if (telemetry::events_enabled()) {
      telemetry::emit_event("shard_quarantined", {{"path", path}});
    }
    std::lock_guard<std::mutex> lock(mu_);
    std::error_code ec;
    iofault::checked_rename(path, path + ".quarantine", ec);
    if (ec) std::filesystem::remove(path, ec);
    const auto it = std::find_if(
        index_.begin(), index_.end(),
        [&](const ShardRef& shard) { return shard.path == path; });
    if (it != index_.end()) {
      bytes_ -= std::min(bytes_.load(), it->bytes);
      index_.erase(it);
    }
    return std::nullopt;
  }
  restores_.fetch_add(1, std::memory_order_relaxed);
  telemetry::counter("winofault_store_shard_restores_total",
                     "golden shards restored from disk",
                     shard_variant_labels(variant))
      .add(1);
  telemetry::counter("winofault_store_shard_read_bytes_total",
                     "bytes read back from golden shards")
      .add(static_cast<std::int64_t>(sizeof(ShardHeader) + payload.size()));
  return golden;
}

}  // namespace winofault
