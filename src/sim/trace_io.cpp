#include "sim/trace_io.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>

#include <sys/mman.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"

namespace repro::sim {

namespace {

// v06: the header gained a payload byte count + checksum (ingest
// hardening); older files without them are version-mismatch stale.
// v07: the checksum became four interleaved lanes (see Checksum).
constexpr std::uint64_t kMagic = 0x54524143'45763037ULL;  // "TRACEv07"

// Seed of config_fingerprint. It is fixed, not kMagic: the cache file name
// then survives a format bump, so cached_simulate finds the old entry,
// load_trace counts it stale by its magic, and the new trace replaces it
// instead of sitting beside it.
constexpr std::uint64_t kFingerprintSeed = 0x54524143'45434647ULL;  // "TRACECFG"

// magic + fingerprint + payload_bytes + payload_hash.
constexpr std::uint64_t kHeaderBytes = 4 * sizeof(std::uint64_t);

/// Payload checksum: four interleaved FNV-1a-style lanes over the payload's
/// 8-byte words, word i folding into lane i mod 4, combined into one
/// digest at the end. One lane is bound by the latency of a multiply and
/// an xor per word; four independent lanes keep pace with memory. The word
/// position and a partial trailing word carry across update() calls, so
/// the digest depends on the byte stream alone, not on how it was split
/// into calls (block seams included). Every lane step h' = (h ^ w) * prime
/// and every step of the final fold is a bijection of each of its inputs,
/// so any single changed word, and so any single-bit flip, changes the
/// digest. The format is single-machine, so endianness does not matter.
struct Checksum {
  static constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::array<std::uint64_t, 4> lanes = {kBasis, kBasis + 1, kBasis + 2,
                                        kBasis + 3};
  std::uint64_t words = 0;  ///< whole words folded so far
  std::array<unsigned char, 8> partial{};  ///< bytes of the next word
  std::size_t partial_bytes = 0;

  void update(const char* p, std::size_t n) noexcept {
    if (partial_bytes != 0) {
      const std::size_t take = std::min(n, 8 - partial_bytes);
      std::memcpy(partial.data() + partial_bytes, p, take);
      partial_bytes += take;
      p += take;
      n -= take;
      if (partial_bytes < 8) return;
      fold(load(partial.data()));
      partial_bytes = 0;
    }
    for (; n >= 8 && words % 4 != 0; p += 8, n -= 8) fold(load(p));
    auto [h0, h1, h2, h3] = lanes;
    const std::size_t quads = n / 32;
    for (std::size_t q = 0; q < quads; ++q, p += 32) {
      h0 = (h0 ^ load(p)) * kPrime;
      h1 = (h1 ^ load(p + 8)) * kPrime;
      h2 = (h2 ^ load(p + 16)) * kPrime;
      h3 = (h3 ^ load(p + 24)) * kPrime;
    }
    lanes = {h0, h1, h2, h3};
    words += 4 * quads;
    n -= 32 * quads;
    for (; n >= 8; p += 8, n -= 8) fold(load(p));
    std::memcpy(partial.data(), p, n);
    partial_bytes = n;
  }

  /// The digest of every byte so far: the lanes, then the zero-padded
  /// partial word and the byte count (so padding cannot alias a longer
  /// stream).
  [[nodiscard]] std::uint64_t digest() const noexcept {
    std::array<unsigned char, 8> last{};
    std::memcpy(last.data(), partial.data(), partial_bytes);
    std::uint64_t h = kBasis;
    for (const std::uint64_t lane : lanes) h = (h ^ lane) * kPrime;
    h = (h ^ load(last.data())) * kPrime;
    return (h ^ (8 * words + partial_bytes)) * kPrime;
  }

 private:
  static std::uint64_t load(const void* p) noexcept {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
  }
  void fold(std::uint64_t w) noexcept {
    std::uint64_t& h = lanes[words++ % 4];
    h = (h ^ w) * kPrime;
  }
};

/// Payload writer: streams bytes while folding the checksum and counting.
struct HashingWriter {
  std::ostream& out;
  Checksum sum;
  std::uint64_t bytes = 0;
  void write(const char* p, std::size_t n) {
    if (n == 0) return;
    out.write(p, static_cast<std::streamsize>(n));
    sum.update(p, n);
    bytes += n;
  }
};

/// Payload reader bounded by the byte count the header declared: every
/// read is validated against the remaining budget BEFORE touching the
/// stream or allocating, so a corrupt length can neither over-read nor
/// trigger a pathological allocation.
struct BoundedReader {
  std::istream& in;
  std::uint64_t remaining;
  Checksum sum;
  /// The one block every vector payload is staged through (read_vec). A
  /// byte array, so the trivially copyable records read into it are
  /// objects that read_vec may copy out.
  std::unique_ptr<std::byte[]> staging =
      std::make_unique_for_overwrite<std::byte[]>(kTraceReadBlockBytes);
  void read(char* p, std::size_t n) {
    if (n == 0) return;
    REPRO_CHECK_MSG(n <= remaining,
                    "trace payload truncated: record needs "
                        << n << " bytes, " << remaining << " remain");
    in.read(p, static_cast<std::streamsize>(n));
    REPRO_CHECK_MSG(in.good(), "trace payload read failed mid-record");
    sum.update(p, n);
    remaining -= n;
  }
};

// The fingerprint below must fold EVERY generative field of SimConfig, or
// two configs differing in an unfolded field would silently share a cache
// entry. These size guards force whoever adds a field to revisit
// config_fingerprint (and bump kMagic, not kFingerprintSeed, if the trace
// semantics change).
static_assert(sizeof(topo::SystemConfig) == 5 * sizeof(std::int32_t),
              "SystemConfig changed: update config_fingerprint");
static_assert(sizeof(workload::CatalogParams) ==
                  sizeof(std::size_t) + 3 * sizeof(double) + sizeof(std::int32_t) + 4,
              "CatalogParams changed: update config_fingerprint");
static_assert(sizeof(workload::SchedulerParams) ==
                  2 * sizeof(double) + sizeof(std::int32_t) + 4 + sizeof(double),
              "SchedulerParams changed: update config_fingerprint");
static_assert(sizeof(telemetry::ThermalParams) == 20 * sizeof(double),
              "ThermalParams changed: update config_fingerprint");
static_assert(sizeof(faults::FaultParams) ==
                  24 * sizeof(double) + sizeof(std::int64_t),
              "FaultParams changed: update config_fingerprint");

// Fold a printable representation of every generative parameter; string
// formatting keeps the fingerprint independent of struct padding.
void fold(std::uint64_t& h, const char* name, double v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, v);
  for (const char* p = buf; *p; ++p) {
    h = hash_combine(h, static_cast<std::uint64_t>(*p));
  }
}

template <typename T>
void write_pod(HashingWriter& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(BoundedReader& in, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
}

template <typename T>
void write_vec(HashingWriter& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod(out, static_cast<std::uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            v.size() * sizeof(T));
}

/// Hints the kernel to back the whole pages of [p, p + bytes) with
/// transparent huge pages when the range spans at least one: a load then
/// faults fresh memory in 2 MiB at a time instead of 4 KiB, and frees it
/// as fast. Only a hint; where it is refused or unknown, nothing but speed
/// changes.
void advise_huge_pages([[maybe_unused]] const void* p,
                       [[maybe_unused]] std::size_t bytes) {
#ifdef MADV_HUGEPAGE
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (bytes < kHugePage || page <= 0) return;
  const auto size = static_cast<std::uintptr_t>(page);
  const auto first = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t begin = (first + size - 1) / size * size;
  const std::uintptr_t end = (first + bytes) / size * size;
  if (begin < end) {
    ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
  }
#endif
}

/// Reads a length-prefixed vector into `v`, replacing its contents. The
/// declared length is checked against the payload budget, then `v`'s
/// capacity reserved (and, when large, advised to use huge pages) but not
/// touched: each block of about kTraceReadBlockBytes is read into the
/// reader's staging block, with the budget, stream and checksum checks of
/// BoundedReader::read, then appended to `v`, so fresh memory is written
/// once, by the copy. visit(begin, end) runs on each block's element range
/// right after it is appended, while it is still in cache.
template <typename T, typename Visit>
void read_vec(BoundedReader& in, std::vector<T>& v, Visit visit) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) <= kTraceReadBlockBytes &&
                alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  std::uint64_t n = 0;
  read_pod(in, n);
  // Validate the declared length against the remaining payload budget
  // before the reserve: a bit-flipped length must not allocate petabytes.
  REPRO_CHECK_MSG(n <= in.remaining / sizeof(T),
                  "trace payload truncated: vector declares "
                      << n << " elements, " << in.remaining
                      << " bytes remain");
  v.clear();
  v.reserve(n);
  advise_huge_pages(v.data(), n * sizeof(T));
  constexpr std::size_t kBlock = kTraceReadBlockBytes / sizeof(T);
  const T* staged = reinterpret_cast<const T*>(in.staging.get());
  while (v.size() < n) {
    const std::size_t begin = v.size();
    const std::size_t count = std::min<std::size_t>(kBlock, n - begin);
    in.read(reinterpret_cast<char*>(in.staging.get()), count * sizeof(T));
    v.insert(v.end(), staged, staged + count);
    visit(begin, v.size());
  }
}

template <typename T>
void read_vec(BoundedReader& in, std::vector<T>& v) {
  read_vec(in, v, [](std::size_t, std::size_t) {});
}

void write_hist(HashingWriter& out, const Histogram& h) {
  std::vector<std::uint64_t> counts(h.bins());
  for (std::size_t b = 0; b < h.bins(); ++b) counts[b] = h.count(b);
  write_vec(out, counts);
}

/// `counts` is scratch space, reused across calls.
void read_hist(BoundedReader& in, Histogram& h,
               std::vector<std::uint64_t>& counts) {
  read_vec(in, counts);
  REPRO_CHECK_MSG(counts.size() == h.bins(), "histogram shape mismatch");
  h.clear();
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] > 0) h.add(h.bin_center(b), counts[b]);
  }
}

/// Raw (unhashed) u64 for the header fields themselves.
void write_raw_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_raw_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

// POD mirror of a RunNodeSample without relying on struct layout of the
// nested FourStats arrays staying stable — RunNodeSample itself is
// trivially copyable, so we can write it raw and guard with the version.
static_assert(std::is_trivially_copyable_v<RunNodeSample>);
static_assert(std::is_trivially_copyable_v<faults::SbeEvent>);
// Written raw, so no record may hold a padding byte, and the TRACEv07
// layout stays put.
static_assert(std::has_unique_object_representations_v<faults::SbeEvent>);
static_assert(sizeof(faults::SbeEvent) == 40 && sizeof(RunNodeSample) == 408);

}  // namespace

std::uint64_t config_fingerprint(const SimConfig& c) {
  std::uint64_t h = kFingerprintSeed;
  fold(h, "gx", c.system.grid_x);
  fold(h, "gy", c.system.grid_y);
  fold(h, "cpc", c.system.cages_per_cabinet);
  fold(h, "spc", c.system.slots_per_cage);
  fold(h, "nps", c.system.nodes_per_slot);
  fold(h, "days", static_cast<double>(c.days));
  fold(h, "seed", static_cast<double>(c.seed));
  fold(h, "napps", static_cast<double>(c.catalog.num_apps));
  fold(h, "popexp", c.catalog.popularity_exponent);
  fold(h, "medrt", c.catalog.median_runtime_min);
  fold(h, "rtspread", c.catalog.runtime_spread);
  fold(h, "maxnodes", c.catalog.max_nodes_cap);
  fold(h, "jph", c.scheduler.jobs_per_hour);
  fold(h, "apj", c.scheduler.apruns_per_job_mean);
  fold(h, "users", c.scheduler.num_users);
  fold(h, "occ", c.scheduler.target_occupancy);
  fold(h, "amb", c.thermal.ambient_base_c);
  fold(h, "bump", c.thermal.corner_bump_c);
  fold(h, "bsig", c.thermal.corner_sigma_frac);
  fold(h, "cstd", c.thermal.cabinet_cooling_std_c);
  fold(h, "idle", c.thermal.idle_offset_c);
  fold(h, "lgain", c.thermal.load_gain_c);
  fold(h, "ngain", c.thermal.neighbor_gain_c);
  fold(h, "heat", c.thermal.heat_rate);
  fold(h, "cool", c.thermal.cool_rate);
  fold(h, "diur", c.thermal.diurnal_amp_c);
  fold(h, "tnoise", c.thermal.temp_noise_c);
  fold(h, "cidle", c.thermal.cpu_idle_offset_c);
  fold(h, "cgain", c.thermal.cpu_load_gain_c);
  fold(h, "crate", c.thermal.cpu_rate);
  fold(h, "cnoise", c.thermal.cpu_noise_c);
  fold(h, "ipow", c.thermal.idle_power_w);
  fold(h, "dpow", c.thermal.dynamic_power_w);
  fold(h, "leak", c.thermal.leakage_w_per_c);
  fold(h, "pnoise", c.thermal.power_noise_w);
  fold(h, "effstd", c.thermal.node_efficiency_std);
  fold(h, "offfrac", c.faults.node_offender_fraction);
  fold(h, "nmu", c.faults.node_scale_mu);
  fold(h, "nsig", c.faults.node_scale_sigma);
  fold(h, "floor", c.faults.floor_scale);
  fold(h, "heavy", c.faults.app_heavy_fraction);
  fold(h, "asig", c.faults.app_scale_sigma);
  fold(h, "afloor", c.faults.app_floor_scale);
  fold(h, "hpop", c.faults.heavy_pop_exponent);
  fold(h, "memx", c.faults.mem_exponent);
  fold(h, "utilx", c.faults.util_exponent);
  fold(h, "luck", c.faults.run_luck_sigma);
  fold(h, "scalex", c.faults.scale_exponent);
  fold(h, "popx", c.faults.popularity_exponent);
  fold(h, "base", c.faults.base_rate_per_min);
  fold(h, "tcoef", c.faults.temp_coeff);
  fold(h, "tknee", c.faults.temp_knee_c);
  fold(h, "tshape", c.faults.temp_shape);
  fold(h, "pcoef", c.faults.power_coeff);
  fold(h, "pref", c.faults.power_ref_w);
  fold(h, "boost", c.faults.burst_boost);
  fold(h, "cap", c.faults.rate_cap_per_min);
  fold(h, "bgb", c.faults.burst_per_gb);
  fold(h, "bsig2", c.faults.burst_sigma);
  fold(h, "drift", static_cast<double>(c.faults.drift_day));
  fold(h, "driftf", c.faults.drift_node_fraction);
  for (const auto p : c.probe_nodes) fold(h, "probe", p);
  return h;
}

void save_trace(const Trace& trace, const SimConfig& config,
                const std::string& path) {
  // Atomic publish: stream everything into a temp file of this writer's
  // own, then rename. Concurrent writers of one entry (two processes
  // filling the same cache, or two threads) never share a temp file, and
  // the last rename wins with a complete file. An interrupted run leaves at
  // worst a stale temp file, never a torn cache entry under the final name.
  static std::atomic<std::uint64_t> writers{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(writers.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    REPRO_CHECK_MSG(out.good(), "cannot open " << tmp << " for writing");
    write_raw_u64(out, kMagic);
    write_raw_u64(out, config_fingerprint(config));
    write_raw_u64(out, 0);  // payload_bytes, patched below
    write_raw_u64(out, 0);  // payload_hash, patched below

    HashingWriter w{out, {}, 0};
    write_pod(w, trace.duration);
    write_vec(w, trace.samples);

    const auto& events = trace.sbe_log.events();
    write_vec(w, events);

    write_pod(w, static_cast<std::uint64_t>(trace.cumulative.size()));
    for (const auto& cum : trace.cumulative) {
      write_pod(w, cum.gpu_temp.state());
      write_pod(w, cum.gpu_power.state());
      write_pod(w, cum.cpu_temp.state());
    }
    write_pod(w, static_cast<std::uint64_t>(trace.period_hists.size()));
    for (const auto& h : trace.period_hists) {
      write_hist(w, h.temp_free);
      write_hist(w, h.temp_affected);
      write_hist(w, h.power_free);
      write_hist(w, h.power_affected);
    }
    write_pod(w, static_cast<std::uint64_t>(trace.probes.size()));
    for (const auto& p : trace.probes) {
      write_pod(w, p.node);
      write_vec(w, p.gpu_temp);
      write_vec(w, p.gpu_power);
      write_vec(w, p.cpu_temp);
      write_vec(w, p.slot_avg_temp);
      write_vec(w, p.slot_avg_power);
      write_vec(w, p.cage_avg_temp);
    }
    out.seekp(2 * sizeof(std::uint64_t));
    write_raw_u64(out, w.bytes);
    write_raw_u64(out, w.sum.digest());
    out.flush();
    REPRO_CHECK_MSG(out.good(), "write to " << tmp << " failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  REPRO_CHECK_MSG(!ec, "cannot publish " << tmp << " -> " << path << ": "
                                         << ec.message());
}

namespace {

/// The fixed-size header at the start of every trace file, with the size
/// of the file it was read from.
struct Header {
  std::uint64_t file_bytes = 0;
  std::uint64_t magic = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_hash = 0;
};

/// Reads the header from the start of `in`, leaving the stream at the
/// payload. A file shorter than the header is corrupt: CheckError.
Header read_header(std::istream& in, const std::string& path) {
  Header h;
  in.seekg(0, std::ios::end);
  h.file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  REPRO_CHECK_MSG(in.good(), "cannot read trace file " << path);
  REPRO_CHECK_MSG(h.file_bytes >= kHeaderBytes,
                  "trace file " << path << " truncated: " << h.file_bytes
                                << " bytes, header needs " << kHeaderBytes);
  h.magic = read_raw_u64(in);
  h.fingerprint = read_raw_u64(in);
  h.payload_bytes = read_raw_u64(in);
  h.payload_hash = read_raw_u64(in);
  REPRO_CHECK_MSG(in.good(), "trace file " << path << " header unreadable");
  return h;
}

/// Strict read of the payload that follows a current header (magic and
/// fingerprint already checked) on `in`.
Trace read_payload(const SimConfig& config, const std::string& path,
                   std::istream& in, const Header& header) {
  const std::uint64_t payload_bytes = header.payload_bytes;
  REPRO_CHECK_MSG(header.file_bytes == kHeaderBytes + payload_bytes,
                  "trace file " << path << " truncated: header declares "
                                << payload_bytes << " payload bytes, file has "
                                << header.file_bytes - kHeaderBytes);

  // The catalog is regenerated deterministically from the config exactly
  // as the simulator would (see Simulator's constructor).
  Rng rng(config.seed);
  auto catalog = workload::AppCatalog::generate(config.catalog, rng.fork(1));
  const auto total_apps = static_cast<std::int32_t>(catalog.size());
  Trace trace(config.system, std::move(catalog), total_apps);

  BoundedReader r{in, payload_bytes, {}};
  read_pod(r, trace.duration);
  // Consumers binary-search samples by run end (core::samples_in), so a
  // payload that breaks the order is corrupt even with a valid checksum.
  bool ordered = true;
  read_vec(r, trace.samples, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = std::max<std::size_t>(begin, 1); i < end; ++i) {
      ordered &= trace.samples[i - 1].end <= trace.samples[i].end;
    }
  });
  std::vector<faults::SbeEvent> events;
  read_vec(r, events);

  std::uint64_t n = 0;
  read_pod(r, n);
  REPRO_CHECK_MSG(n == trace.cumulative.size(),
                  "trace file " << path << " node-count mismatch");
  for (auto& cum : trace.cumulative) {
    RunningStats::State s;
    read_pod(r, s);
    cum.gpu_temp = RunningStats::from_state(s);
    read_pod(r, s);
    cum.gpu_power = RunningStats::from_state(s);
    read_pod(r, s);
    cum.cpu_temp = RunningStats::from_state(s);
  }
  read_pod(r, n);
  REPRO_CHECK_MSG(n == trace.period_hists.size(),
                  "trace file " << path << " histogram-count mismatch");
  std::vector<std::uint64_t> counts;
  for (auto& h : trace.period_hists) {
    read_hist(r, h.temp_free, counts);
    read_hist(r, h.temp_affected, counts);
    read_hist(r, h.power_free, counts);
    read_hist(r, h.power_affected, counts);
  }
  read_pod(r, n);
  REPRO_CHECK_MSG(n <= r.remaining / sizeof(topo::NodeId),
                  "trace file " << path << " probe-count implausible");
  trace.probes.resize(n);
  for (auto& p : trace.probes) {
    read_pod(r, p.node);
    read_vec(r, p.gpu_temp);
    read_vec(r, p.gpu_power);
    read_vec(r, p.cpu_temp);
    read_vec(r, p.slot_avg_temp);
    read_vec(r, p.slot_avg_power);
    read_vec(r, p.cage_avg_temp);
  }
  REPRO_CHECK_MSG(r.remaining == 0,
                  "trace file " << path << " has " << r.remaining
                                << " unexpected trailing payload bytes");
  // The checksum is the last word: only now do we know every byte matched
  // what save_trace produced, so the SBE events below satisfy the strict
  // log invariants (they were valid when written).
  REPRO_CHECK_MSG(r.sum.digest() == header.payload_hash,
                  "trace file " << path
                                << " checksum mismatch (bit corruption)");
  REPRO_CHECK_MSG(ordered, "trace file " << path
                                         << " has samples out of run-end order");
  for (const auto& e : events) trace.sbe_log.add(e);
  return trace;
}

}  // namespace

Trace read_trace(const SimConfig& config, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  REPRO_CHECK_MSG(in.good(), "cannot open trace file " << path);
  const Header header = read_header(in, path);
  REPRO_CHECK_MSG(header.magic == kMagic,
                  "trace file " << path
                                << " version mismatch (expected TRACEv07)");
  REPRO_CHECK_MSG(header.fingerprint == config_fingerprint(config),
                  "trace file " << path
                                << " was generated from a different SimConfig"
                                   " (fingerprint mismatch)");
  return read_payload(config, path, in, header);
}

std::optional<Trace> load_trace(const SimConfig& config,
                                const std::string& path) {
  OBS_SPAN("sim.trace_cache_load");
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;  // no cache entry: silent miss
  try {
    const Header header = read_header(in, path);
    // Stale entries (old format version or a different config) are normal
    // cache misses, not corruption. A file too short to hold a header is
    // corrupt: read_header throws, and it is rejected below.
    if (header.magic != kMagic ||
        header.fingerprint != config_fingerprint(config)) {
      OBS_COUNT("ingest.trace_cache_stale");
      return std::nullopt;
    }
    Trace trace = read_payload(config, path, in, header);
    OBS_COUNT_ADD("sim.trace_cache_load_bytes", header.file_bytes);
    return trace;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "[ingest] rejecting corrupt trace file %s: %s\n",
                 path.c_str(), e.what());
    OBS_COUNT("ingest.trace_file_rejected");
    return std::nullopt;
  }
}

std::string cache_path(const SimConfig& config, const std::string& cache_dir) {
  char name[64];
  std::snprintf(name, sizeof(name), "trace_%016llx.bin",
                static_cast<unsigned long long>(config_fingerprint(config)));
  return cache_dir + "/" + name;
}

Trace cached_simulate(const SimConfig& config, const std::string& cache_dir,
                      bool* hit) {
  std::filesystem::create_directories(cache_dir);
  const std::string path = cache_path(config, cache_dir);
  std::optional<Trace> loaded = load_trace(config, path);
  if (hit != nullptr) *hit = loaded.has_value();
  if (loaded) {
    OBS_COUNT("sim.trace_cache_hits");
    return std::move(*loaded);
  }
  OBS_COUNT("sim.trace_cache_misses");
  Trace trace = simulate(config);
  OBS_SPAN("sim.trace_cache_store");
  save_trace(trace, config, path);
  return trace;
}

}  // namespace repro::sim
