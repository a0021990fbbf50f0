// Binary trace caching.
//
// A full-scale trace takes the better part of a minute to simulate; the
// experiment driver and the benchmark consume the same trace run after
// run. cached_simulate() keys a cache file on a fingerprint of the
// SimConfig, so the first run pays the simulation cost and the rest load
// in well under a second.
//
// The format is a local cache, not an interchange format: it is
// endianness/ABI-naive by design and guarded by a fingerprint + version
// and by a payload byte count and checksum in the header, so truncated or
// bit-flipped cache files are detected and rejected rather than consumed.
// Reads are bounded: every record length is validated against the bytes
// actually present before any allocation, so a corrupt file can never
// trigger an over-read or a pathological allocation. Writes are atomic
// (stream to a temp file of the writer's own, `<path>.tmp.<pid>.<n>`, then
// rename), so an interrupted run or a concurrent writer can never leave a
// torn cache file for the next run to ingest.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "sim/simulator.hpp"

namespace repro::sim {

/// Vector payloads are read in blocks of this many bytes, rounded down to
/// whole elements (exposed so tests can aim corruption at block seams).
inline constexpr std::size_t kTraceReadBlockBytes = std::size_t{1} << 20;

/// Stable fingerprint of everything that influences simulate(config).
std::uint64_t config_fingerprint(const SimConfig& config);

/// Writes the trace (catalog excluded; it is regenerated from the config).
/// Atomic: the file appears under its final name only when complete.
void save_trace(const Trace& trace, const SimConfig& config,
                const std::string& path);

/// Strict read: returns the trace or throws CheckError with a reason —
/// unreadable file, version mismatch, config fingerprint mismatch,
/// truncation (declared payload size vs bytes present), checksum
/// mismatch (bit corruption), or samples out of run-end order. Never
/// crashes or over-reads on any input.
Trace read_trace(const SimConfig& config, const std::string& path);

/// Cache-facing read: nullopt when the file is missing, stale (version or
/// fingerprint mismatch — a normal cache miss, counted as
/// `ingest.trace_cache_stale`), or corrupt, a file too short for its header
/// included (rejected with a one-line warning and an
/// `ingest.trace_file_rejected` count). Opens the file once. Timed as the
/// `sim.trace_cache_load` span; a successful load adds the file's size to
/// `sim.trace_cache_load_bytes`.
std::optional<Trace> load_trace(const SimConfig& config,
                                const std::string& path);

/// Cache file path cached_simulate() would use for this config. It depends
/// on the config alone, not on the format version, so an entry in an older
/// format is found, counted stale and replaced in place.
std::string cache_path(const SimConfig& config, const std::string& cache_dir);

/// load_trace or simulate-and-save. `cache_dir` must exist or be creatable.
/// `hit`, when non-null, receives whether a valid cache entry served the
/// trace (a stale or corrupt entry at the path is a miss).
Trace cached_simulate(const SimConfig& config, const std::string& cache_dir,
                      bool* hit = nullptr);

}  // namespace repro::sim
