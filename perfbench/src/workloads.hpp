#pragma once

#include "common.hpp"
#include "util/parallel.hpp"

namespace perfbench {

/// study::run_scale_study at `options.sessions`: pass 1 simulates on the
/// event engine and spills YFL2, pass 2 streams the spills back through the
/// incremental analyses. The traced run reproduces the same two passes from
/// the libraries' public pieces with a span around each call.
[[nodiscard]] Result run_scale_stream(const Options& options, util::ThreadPool& pool);

/// study::run_study plus study::make_full_report (Table III included) at
/// `options.report_scale`: the whole week in memory, derive, CBG, report.
[[nodiscard]] Result run_paper_report(const Options& options, util::ThreadPool& pool);

/// service::Service with `once` over the spool `gen-spool` made.
/// `corrupt_spool` flips one payload byte of the first spool file in every
/// copy the service ingests (the self-test's failure path).
[[nodiscard]] Result run_service_ingest(const Options& options, util::ThreadPool& pool,
                                        bool corrupt_spool);

/// Writes the service_ingest input under `options.spool_dir`: US-Campus's
/// spilled week at the scale_stream size, rotated into sequence-numbered
/// YFL2 files, its ground-truth `.dcmap`, and `spool.meta` (records,
/// sessions and files offered).
void generate_spool(const Options& options, util::ThreadPool& pool);

}  // namespace perfbench
