// The three workloads. gen_* writes a workload's inputs for one seed into
// a directory (run in its own process, so input generation stays out of
// the measured set-up); run_* measures them.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

// ingest: wave CSV file -> read_csv_parallel_file -> write_snapshot ->
// read_snapshot (verify) -> QueryEngine study batch -> encode_result_body.
void gen_ingest(const std::string& dir, std::uint64_t seed);
Outcome run_ingest(const RunArgs& args);

// Serve inputs: a base epoch of kBaseRows rows and, for serve_delta,
// kBlocks delta blocks of kBlockRows rows each.
inline constexpr std::size_t kBaseRows = 1'000'000;
inline constexpr std::size_t kBlockRows = 8192;
inline constexpr std::size_t kBlocks = 40;

// serve_read: closed-loop Zipf dashboard reads over TCP loopback.
// serve_delta: back-to-back Server::append_delta beside a paced reader.
// Both read the same base snapshot; serve_delta also reads the blocks.
void gen_serve(const std::string& dir, std::uint64_t seed, bool with_blocks);
Outcome run_serve_read(const RunArgs& args);
Outcome run_serve_delta(const RunArgs& args);

}  // namespace perfbench
