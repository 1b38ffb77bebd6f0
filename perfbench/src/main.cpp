// ytcdn_perfbench: runs one benchmark workload and prints its result.
//
//   ytcdn_perfbench run --workload W --seed N --seconds S --trace 0|1
//                       --threads T --work-dir DIR [--spool DIR]
//                       [--sessions N] [--report-scale X]
//                       [--setup-repeats K] [--min-iterations K]
//                       [--corrupt-spool]
//   ytcdn_perfbench setup --workload W --seed N --threads T --work-dir DIR
//                       [--sessions N] [--report-scale X] [--setup-repeats K]
//   ytcdn_perfbench gen-spool --seed N --threads T --work-dir DIR
//                       --spool DIR [--sessions N]
//
// `run` prints a few human-readable lines and then, as its last line, one
// JSON object: provenance, attempted/failed operations, failed correctness
// checks, output digests and the metrics. `setup` prints {"setup_s": ...},
// the median set-up time; it runs in a process of its own so that neither
// its heap nor its peak RSS mixes with the workload's. perfbench/run.py
// builds this program, compares the digests with perfbench/expected.json
// and prints the benchmark's result line. Exit status: 0 ran (checks may
// still have failed; run.py decides), 1 error, 2 usage or unoptimised
// build.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        if (!first) out += ", ";
        first = false;
        out += json_string(name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
    }
    return out + "}";
}

std::string json_result(const Options& o, const Result& r) {
    std::ostringstream os;
    os << "{\"workload\": " << json_string(o.workload) << ", \"provenance\": {"
       << "\"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"optimized\": true"
       << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"pool_threads\": " << o.threads << ", \"seed\": " << o.seed
       << ", \"size\": " << json_string(r.size)
       << ", \"traced\": " << (o.trace ? "true" : "false") << "}"
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"check_failures\": [";
    for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
        os << (i ? ", " : "") << json_string(r.check_failures[i]);
    }
    os << "], \"digests\": {";
    bool first = true;
    for (const auto& [name, d] : r.digests) {
        os << (first ? "" : ", ") << json_string(name) << ": " << json_string(d);
        first = false;
    }
    os << "}, \"metrics\": " << json_metrics(r.metrics)
       << ", \"info\": " << json_metrics(r.info) << "}";
    return os.str();
}

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "ytcdn_perfbench: " << why << "\n"
              << "usage: ytcdn_perfbench run|setup|gen-spool --workload W --seed N "
                 "--seconds S --trace 0|1 --threads T --work-dir DIR ...\n";
    std::exit(2);
}

Options parse(int argc, char** argv, bool& corrupt_spool) {
    Options o;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt-spool") {
            corrupt_spool = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") o.workload = v;
        else if (flag == "--seed") o.seed = std::stoull(v, nullptr, 0);
        else if (flag == "--seconds") o.seconds = std::stod(v);
        else if (flag == "--trace") o.trace = v == "1";
        else if (flag == "--threads") o.threads = std::stoul(v);
        else if (flag == "--work-dir") o.work_dir = v;
        else if (flag == "--spool") o.spool_dir = v;
        else if (flag == "--sessions") o.sessions = std::stoull(v);
        else if (flag == "--report-scale") o.report_scale = std::stod(v);
        else if (flag == "--setup-repeats") o.setup_repeats = std::stoi(v);
        else if (flag == "--min-iterations") o.min_iterations = std::stoi(v);
        else usage("unknown flag " + flag);
    }
    if (o.threads == 0) usage("--threads must be at least 1");
    if (o.min_iterations < 1) usage("--min-iterations must be at least 1");
    if (o.work_dir.empty()) usage("--work-dir is required");
    return o;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
    std::cerr << "ytcdn_perfbench: refusing to measure an unoptimised build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 2;
#endif
    if (argc < 2) usage("missing command");
    const std::string command = argv[1];
    bool corrupt_spool = false;
    Options options = parse(argc, argv, corrupt_spool);
    try {
        perfbench::util::ThreadPool pool(options.threads);
        if (command == "gen-spool") {
            if (options.spool_dir.empty()) usage("gen-spool needs --spool");
            perfbench::generate_spool(options, pool);
            return 0;
        }
        if (command == "setup") {
            const double setup_s = perfbench::median_setup_s(
                options, perfbench::workload_config(options), pool);
            std::cout << "{\"setup_s\": " << json_number(setup_s) << "}" << std::endl;
            return 0;
        }
        if (command != "run") usage("unknown command " + command);
        Result result;
        if (options.workload == "scale_stream") {
            result = perfbench::run_scale_stream(options, pool);
        } else if (options.workload == "paper_report") {
            result = perfbench::run_paper_report(options, pool);
        } else if (options.workload == "service_ingest") {
            if (options.spool_dir.empty()) usage("service_ingest needs --spool");
            result = perfbench::run_service_ingest(options, pool, corrupt_spool);
        } else {
            usage("unknown workload '" + options.workload + "'");
        }
        for (const auto& [name, m] : result.info) {
            std::cout << "# " << options.workload << " " << name << " = "
                      << json_number(m.value) << " " << m.unit << "\n";
        }
        std::cout << json_result(options, result) << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "ytcdn_perfbench: " << options.workload << ": " << e.what() << "\n";
        return 1;
    }
}
