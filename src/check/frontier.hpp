#pragma once
// Persistent exploration frontier: resumable, shardable campaign state.
//
// A frontier file (schema "canely-frontier-1") records everything one
// explorer shard has established about its slice of the placement space:
// one record per explored unit — (u, j) coordinates, the unit's
// equivalence-class key, and its verdict (plus the violating script when
// the verdict is a violation).  Coordinates are shard-local knowledge: at
// depth 1, u is the global placement index and j is 0; at depth 2, u is
// the global base index and j the in-base placement index.  Any shard can
// compute its own units' coordinates without probing another shard's
// bases, which is what makes the merged record order — sorted by (u, j) —
// reproducible from shard files alone.
//
// Invariants the format maintains deliberately:
//  * No wall-clock, hostname, or advisory statistics in the file: a
//    frontier's bytes are a pure function of (configuration, slice,
//    progress), so merging complete shards and comparing against an
//    unsharded run is a byte-equality check, not a semantic diff.
//  * The aggregate is an FNV fold over the records in (u, j) order —
//    independent of thread count, shard split, and dedup on/off (dedup
//    changes how a verdict is obtained, never what it is).
//  * Writes go through a temp file + atomic rename, so a killed run
//    leaves either the previous checkpoint or the new one, never a torn
//    file — the anchor of resume-after-kill.

#include <cstdint>
#include <string>
#include <vector>

#include "check/fault_script.hpp"
#include "check/monitor.hpp"
#include "json/json.hpp"

namespace canely::check {

/// Verdict of one explored unit.
struct FrontierRecord {
  std::uint64_t u{};    ///< depth-1: global placement index; depth-2: base
  std::uint64_t j{};    ///< depth-2: in-base placement index; else 0
  std::uint64_t key{};  ///< equivalence-class key of the unit
  bool violated{false};
  Violation violation;  ///< first violation; meaningful iff violated
  FaultScript script;   ///< full violating script; recorded iff violated
};

/// One shard's persistent exploration state.
struct FrontierFile {
  std::uint64_t fingerprint{};  ///< explorer configuration digest
  std::uint64_t total{};        ///< units in this shard's slice
  std::uint32_t shard_index{0};
  std::uint32_t shard_count{1};
  std::uint64_t cursor{};      ///< units of the slice completed so far
  bool complete{false};        ///< cursor == total and the run finished
  bool partial{false};         ///< budget caps truncated the space
  std::vector<FrontierRecord> records;
  std::uint64_t aggregate{};   ///< fold_records(records)
};

/// One step of the aggregate fold: `h` extended by `record`.  The
/// explorer folds its records one by one as they settle, so it keeps
/// none unless a frontier file needs them.
[[nodiscard]] std::uint64_t fold_record(std::uint64_t h,
                                        const FrontierRecord& record);

/// Order-sensitive FNV fold over the records (fold_record from
/// kFnvOffset): the explorer's thread/shard/dedup-invariant aggregate.
/// Callers sort by (u, j) first when records may be out of order (merge).
[[nodiscard]] std::uint64_t fold_records(
    const std::vector<FrontierRecord>& records);

/// Serialize (deterministic bytes; `aggregate` is recomputed from the
/// records, not trusted).
[[nodiscard]] json::Value frontier_json(const FrontierFile& frontier);

/// Write `frontier` to `path` atomically (temp file + rename); throws
/// std::runtime_error on I/O failure.
void write_frontier(const std::string& path, const FrontierFile& frontier);

/// Parse a frontier file; throws std::runtime_error on I/O, syntax,
/// schema, or aggregate-mismatch errors.
[[nodiscard]] FrontierFile load_frontier(const std::string& path);

/// Merge complete shard frontiers into the equivalent unsharded frontier:
/// validates that the shards share a fingerprint, form exactly the set
/// 0..shard_count-1, and are all complete; concatenates their records,
/// sorts by (u, j), and refolds the aggregate.  The result serializes to
/// the same bytes an unsharded run over the union would have produced.
/// Throws std::runtime_error on any validation failure.
[[nodiscard]] FrontierFile merge_frontiers(
    const std::vector<FrontierFile>& shards);

}  // namespace canely::check
