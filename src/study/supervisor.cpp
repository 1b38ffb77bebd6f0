#include "study/supervisor.hpp"

#include <chrono>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "capture/flow_log.hpp"
#include "study/snapshot.hpp"
#include "study/study_run.hpp"
#include "util/crc32.hpp"
#include "util/host_clock.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"

namespace ytcdn::study {

namespace {

struct SupervisorMetrics {
    util::metrics::Counter stages_run =
        util::metrics::counter("supervisor.stages_run");
    util::metrics::Counter stages_resumed =
        util::metrics::counter("supervisor.stages_resumed");
    util::metrics::Counter retries =
        util::metrics::counter("supervisor.retries");
    util::metrics::Counter stages_degraded =
        util::metrics::counter("supervisor.stages_degraded");
    util::metrics::Counter deadline_exceeded =
        util::metrics::counter("supervisor.guard_deadline_exceeded");
    util::metrics::Counter rss_exceeded =
        util::metrics::counter("supervisor.guard_rss_exceeded");
    util::metrics::Gauge peak_rss =
        util::metrics::gauge("supervisor.peak_rss_kb");
};

SupervisorMetrics& supervisor_metrics() {
    static SupervisorMetrics metrics;
    return metrics;
}

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t bits_of(double v) {
    std::uint64_t out;
    static_assert(sizeof(out) == sizeof(v));
    __builtin_memcpy(&out, &v, sizeof(out));
    return out;
}

/// config_fingerprint + every report option that shapes report bytes, so a
/// resume under different flags is rejected as a KeyMismatch.
std::uint64_t fingerprint_of(const StudyConfig& config,
                             const ReportOptions& report) {
    std::uint64_t h = config_fingerprint(config);
    const auto fold = [&h](std::uint64_t v) { h = mix64(h ^ v); };
    fold(report.include_table3 ? 1 : 0);
    fold(static_cast<std::uint64_t>(report.landmarks.north_america));
    fold(static_cast<std::uint64_t>(report.landmarks.europe));
    fold(static_cast<std::uint64_t>(report.landmarks.asia));
    fold(static_cast<std::uint64_t>(report.landmarks.south_america));
    fold(static_cast<std::uint64_t>(report.landmarks.oceania));
    fold(static_cast<std::uint64_t>(report.landmarks.africa));
    fold(static_cast<std::uint64_t>(report.cbg.calibration_probes));
    fold(static_cast<std::uint64_t>(report.cbg.target_probes));
    fold(static_cast<std::uint64_t>(report.cbg.grid));
    fold(static_cast<std::uint64_t>(report.cbg.max_circles));
    fold(bits_of(report.cbg.relax_step));
    fold(static_cast<std::uint64_t>(report.cbg.max_relax_iters));
    return h;
}

std::string hex64(std::uint64_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
        v >>= 4;
    }
    return out;
}

const char* status_word(const StageStatus& st) {
    if (st.from_checkpoint) return "resumed";
    if (st.degraded) return "degraded";
    if (st.completed) return "ok";
    if (st.attempts == 0) return "skipped";
    return "failed";
}

/// Deterministic given the same stage outcomes: no wall times, no RSS
/// numbers (those go to util::metrics and the tracer instead), so two runs
/// that took the same path produce the same manifest bytes.
std::string render_manifest(std::uint64_t fingerprint,
                            const std::vector<StageStatus>& stages,
                            const std::vector<std::string>& degraded,
                            bool completed) {
    std::ostringstream os;
    os << "# ytcdn supervised study run\n";
    os << "manifest_version 1\n";
    os << "fingerprint " << hex64(fingerprint) << '\n';
    std::uint64_t retries = 0;
    for (const auto& st : stages) {
        os << "stage " << to_string(st.stage) << " status=" << status_word(st)
           << " attempts=" << st.attempts;
        if (st.deadline_exceeded) os << " deadline_exceeded=1";
        if (st.rss_exceeded) os << " rss_exceeded=1";
        if (!st.error.empty() && !st.completed) {
            os << " error=\"" << st.error << '"';
        }
        os << '\n';
        if (st.attempts > 1) retries += static_cast<std::uint64_t>(st.attempts - 1);
    }
    os << "retries_total " << retries << '\n';
    for (const auto& name : degraded) os << "degraded " << name << '\n';
    os << "degraded_total " << degraded.size() << '\n';
    os << "status " << (completed ? "complete" : "interrupted") << '\n';
    return os.str();
}

}  // namespace

StageOutcome run_supervised(std::string_view name, const StagePolicy& policy,
                            const std::function<void()>& body,
                            std::ostream* log) {
    auto& metrics = supervisor_metrics();
    StageOutcome out;
    out.name = name;
    const int attempts_allowed = policy.attempts < 1 ? 1 : policy.attempts;
    const double t0 = util::host_clock::monotonic_s();
    std::optional<Error> last_error;
    for (out.attempts = 1; out.attempts <= attempts_allowed; ++out.attempts) {
        if (out.attempts > 1) {
            metrics.retries.inc();
            if (log) {
                *log << "[supervised] retrying '" << out.name << "' (attempt "
                     << out.attempts
                     << "): " << (last_error ? last_error->what() : "")
                     << '\n';
            }
            const double delay = policy.backoff_s *
                                 static_cast<double>(1 << (out.attempts - 2));
            if (delay > 0.0) {
                std::this_thread::sleep_for(std::chrono::duration<double>(delay));
            }
        }
        try {
            body();
            out.completed = true;
            break;
        } catch (const Error& e) {
            last_error = e;
            out.error = e.what();
            out.error_code = e.code();
        } catch (const std::exception& e) {
            last_error = Error(ErrorCode::Io, e.what());
            out.error = e.what();
            out.error_code = ErrorCode::Io;
        }
    }
    if (out.attempts > attempts_allowed) out.attempts = attempts_allowed;
    out.wall_s = util::host_clock::monotonic_s() - t0;
    out.peak_rss_kb = util::host_clock::peak_rss_kb();
    metrics.peak_rss.update_max(out.peak_rss_kb);
    if (policy.deadline_s > 0.0 && out.wall_s > policy.deadline_s) {
        out.deadline_exceeded = true;
        metrics.deadline_exceeded.inc();
    }
    if (policy.max_rss_mib > 0.0 &&
        static_cast<double>(out.peak_rss_kb) > policy.max_rss_mib * 1024.0) {
        out.rss_exceeded = true;
        metrics.rss_exceeded.inc();
    }
    return out;
}

Supervisor::Supervisor(StudyConfig config, SupervisorOptions options)
    : config_(std::move(config)),
      options_(std::move(options)),
      fingerprint_(fingerprint_of(config_, options_.report)) {}

util::Result<SupervisorResult> Supervisor::run() {
    namespace io = util::io;
    if (options_.run_dir.empty()) {
        return Error(ErrorCode::InvalidArgument,
                     "Supervisor: run_dir must be set");
    }
    const auto& run_dir = options_.run_dir;
    std::error_code ec;
    std::filesystem::create_directories(run_dir / "checkpoints", ec);
    std::filesystem::create_directories(run_dir / "logs", ec);
    std::filesystem::create_directories(run_dir / "artifacts", ec);

    // A scripted sim fault schedule is excluded from config_fingerprint
    // (mirroring YSS2), so checkpoints cannot be keyed to it — disable them
    // rather than risk resuming a healthy run's checkpoint into a fault run.
    const bool checkpoints =
        options_.checkpoints && config_.fault_schedule.empty();
    const bool strict = config_.effective_strict_artifacts();

    SupervisorResult result;
    result.report_path = run_dir / "report.txt";
    result.manifest_path = run_dir / "manifest.txt";

    const auto warn = [&](std::string message) {
        if (options_.log) *options_.log << "[supervisor] " << message << '\n';
        result.warnings.push_back(std::move(message));
    };
    const auto note = [&](const std::string& message) {
        if (options_.log) *options_.log << "[supervisor] " << message << '\n';
    };

    // Writes a checkpoint; failure to persist one never fails the run (the
    // resume just recomputes the stage), so it degrades to a warning.
    const auto save_checkpoint = [&](Stage stage, std::string_view payload) {
        if (!checkpoints) return;
        auto written = write_checkpoint(checkpoint_path(run_dir, stage),
                                        fingerprint_, stage, payload);
        if (!written) {
            warn("checkpoint for stage '" + std::string(to_string(stage)) +
                 "' not written: " + written.error().what());
        }
    };
    const auto try_resume = [&](Stage stage) -> std::optional<std::string> {
        if (!checkpoints || !options_.resume) return std::nullopt;
        std::string warning;
        auto payload = load_or_quarantine_checkpoint(
            checkpoint_path(run_dir, stage), fingerprint_, stage, &warning);
        if (!warning.empty()) warn(warning);
        return payload;
    };

    util::ThreadPool pool(config_.effective_threads());

    struct PipelineState {
        TraceOutputs traces;
        std::optional<StudyRun> run;
        std::optional<FullReport> report;
    } state;
    // Render-stage degradations are rebuilt on every attempt so a retried
    // stage does not duplicate entries.
    std::vector<std::string> degraded_render;

    const auto simulate_body = [&](StageStatus& st) {
        if (auto payload = try_resume(Stage::Simulate)) {
            std::istringstream is(*payload);
            auto loaded = load_trace_snapshot_result(is, config_);
            if (loaded) {
                state.traces = std::move(loaded).value();
                st.from_checkpoint = true;
                return;
            }
            warn("simulate checkpoint payload rejected (" +
                 std::string(loaded.error().what()) + "); re-simulating");
        }
        auto deployment = std::make_unique<StudyDeployment>(config_);
        TraceDriver driver(*deployment);
        driver.set_num_shards(config_.engine_shards);
        state.traces = driver.run();
        if (checkpoints) {
            std::ostringstream os;
            if (write_trace_snapshot(os, config_, state.traces)) {
                save_checkpoint(Stage::Simulate, os.str());
            }
        }
    };

    const auto capture_body = [&](StageStatus& st) {
        const auto& datasets = state.traces.datasets;
        const auto log_path = [&](const std::string& name) {
            return run_dir / "logs" / (name + ".yfl");
        };
        if (auto payload = try_resume(Stage::Capture)) {
            auto entries = decode_capture(*payload);
            bool valid = entries.ok() && entries.value().size() == datasets.size();
            if (valid) {
                for (const auto& e : entries.value()) {
                    auto bytes = io::read_file(log_path(e.name));
                    if (!bytes || bytes.value().size() != e.size ||
                        util::crc32(bytes.value()) != e.crc) {
                        valid = false;
                        break;
                    }
                }
            }
            if (valid) {
                st.from_checkpoint = true;
                return;
            }
            warn("capture checkpoint did not match the on-disk logs; "
                 "rewriting them");
        }
        std::vector<CaptureEntry> entries;
        entries.reserve(datasets.size());
        for (const auto& ds : datasets) {
            std::ostringstream os;
            capture::write_flow_log(os, ds.records);
            const std::string bytes = os.str();
            io::write_file_atomic(log_path(ds.name), bytes)
                .context("capture log " + ds.name)
                .value_or_throw();
            entries.push_back({ds.name, bytes.size(), util::crc32(bytes)});
        }
        save_checkpoint(Stage::Capture, encode_capture(entries));
    };

    const auto geolocate_body = [&](StageStatus& st) {
        if (auto payload = try_resume(Stage::Geolocate)) {
            std::vector<analysis::ServerDcMap> maps;
            std::vector<int> preferred;
            auto decoded = decode_geolocate(*payload, &maps, &preferred);
            if (decoded && maps.size() == state.traces.datasets.size()) {
                state.run = assemble_study_run(config_, std::move(state.traces),
                                               std::move(maps), std::move(preferred),
                                               pool);
                st.from_checkpoint = true;
                return;
            }
            warn(std::string("geolocate checkpoint payload rejected") +
                 (decoded ? "" : std::string(" (") + decoded.error().what() + ")") +
                 "; re-deriving maps");
        }
        state.run = assemble_study_run(config_, std::move(state.traces), pool);
        save_checkpoint(Stage::Geolocate,
                        encode_geolocate(state.run->maps, state.run->preferred));
    };

    const auto analyze_body = [&](StageStatus& st) {
        if (auto payload = try_resume(Stage::Analyze)) {
            auto decoded = decode_report(*payload);
            if (decoded) {
                state.report = std::move(decoded).value();
                st.from_checkpoint = true;
                return;
            }
            warn("analyze checkpoint payload rejected (" +
                 std::string(decoded.error().what()) + "); re-analyzing");
        }
        state.report = make_full_report(*state.run, pool, options_.report);
        save_checkpoint(Stage::Analyze, encode_report(*state.report));
    };

    const auto render_body = [&](StageStatus&) {
        degraded_render.clear();
        io::write_file_atomic(result.report_path, state.report->render())
            .context("report.txt")
            .value_or_throw();
        for (const auto& artifact : state.report->artifacts) {
            auto written = io::write_file_atomic(
                run_dir / "artifacts" / artifact.name, artifact.content);
            if (!written) {
                if (strict) {
                    std::move(written)
                        .context("artifact file " + artifact.name)
                        .value_or_throw();
                }
                degraded_render.push_back("artifacts/" + artifact.name);
                warn("artifact file " + artifact.name +
                     " not written: " + written.error().what());
            }
        }
    };

    constexpr Stage kOrder[kNumStages] = {Stage::Simulate, Stage::Capture,
                                          Stage::Geolocate, Stage::Analyze,
                                          Stage::Render};
    auto& metrics = supervisor_metrics();
    bool interrupted = false;

    for (std::size_t i = 0; i < kNumStages; ++i) {
        if (options_.max_stages != 0 && i >= options_.max_stages) {
            interrupted = true;
            // Record the never-started stages so the manifest shows where
            // the run stopped.
            for (std::size_t j = i; j < kNumStages; ++j) {
                StageStatus skipped;
                skipped.stage = kOrder[j];
                result.stages.push_back(skipped);
            }
            break;
        }
        StageStatus st;
        st.stage = kOrder[i];
        const StageOutcome outcome = run_supervised(
            to_string(st.stage), options_.policy,
            [&] {
                switch (st.stage) {
                    case Stage::Simulate: simulate_body(st); break;
                    case Stage::Capture: capture_body(st); break;
                    case Stage::Geolocate: geolocate_body(st); break;
                    case Stage::Analyze: analyze_body(st); break;
                    case Stage::Render: render_body(st); break;
                    case Stage::Service: break;  // not a pipeline stage
                }
            },
            options_.log);
        st.attempts = outcome.attempts;
        st.completed = outcome.completed;
        st.error = outcome.error;
        st.wall_s = outcome.wall_s;
        st.peak_rss_kb = outcome.peak_rss_kb;
        metrics.stages_run.inc();
        if (st.from_checkpoint) metrics.stages_resumed.inc();

        // Soft resource guards: report (metrics + tracer + manifest flags),
        // never abort — the study's answer is still worth having late.
        // run_supervised already counted them; here they become warnings and
        // Guard trace events.
        if (outcome.deadline_exceeded) {
            st.deadline_exceeded = true;
            if (options_.tracer) {
                options_.tracer->emit(
                    0.0, sim::TraceEventType::Guard, 0xFE, 0, /*code=*/2,
                    static_cast<std::int64_t>(st.wall_s * 1000.0),
                    options_.tracer->intern(to_string(st.stage)),
                    options_.policy.deadline_s);
            }
            warn("stage '" + std::string(to_string(st.stage)) +
                 "' exceeded its deadline");
        }
        if (outcome.rss_exceeded) {
            st.rss_exceeded = true;
            if (options_.tracer) {
                options_.tracer->emit(
                    0.0, sim::TraceEventType::Guard, 0xFE, 0, /*code=*/1,
                    static_cast<std::int64_t>(st.peak_rss_kb),
                    options_.tracer->intern(to_string(st.stage)),
                    options_.policy.max_rss_mib * 1024.0);
            }
            warn("stage '" + std::string(to_string(st.stage)) +
                 "' exceeded the peak-RSS ceiling");
        }

        if (!st.completed) {
            // Graceful degradation: capture output is a side artifact the
            // report does not depend on, so its loss degrades the run. The
            // other stages are required — without them there is no report.
            if (st.stage == Stage::Capture && !strict) {
                st.degraded = true;
                metrics.stages_degraded.inc();
                result.degraded.push_back("capture");
                warn("stage 'capture' failed after " +
                     std::to_string(st.attempts) +
                     " attempts; continuing without flow logs: " + st.error);
                result.stages.push_back(std::move(st));
                continue;
            }
            result.stages.push_back(st);
            for (std::size_t j = i + 1; j < kNumStages; ++j) {
                StageStatus skipped;
                skipped.stage = kOrder[j];
                result.stages.push_back(skipped);
            }
            // Persist what is known before reporting failure: the manifest
            // is the post-mortem artifact.
            auto manifest = io::write_file_atomic(
                result.manifest_path,
                render_manifest(fingerprint_, result.stages, result.degraded,
                                false));
            if (!manifest) {
                warn(std::string("manifest not written: ") +
                     manifest.error().what());
            }
            return Error(outcome.error_code,
                         "stage '" + std::string(to_string(st.stage)) +
                             "' failed after " + std::to_string(st.attempts) +
                             " attempts: " + st.error);
        }
        note("stage '" + std::string(to_string(st.stage)) + "' " +
             status_word(st) + " (attempts " + std::to_string(st.attempts) +
             ")");
        result.stages.push_back(std::move(st));
    }

    if (state.report) {
        result.degraded.insert(result.degraded.end(),
                               state.report->degraded.begin(),
                               state.report->degraded.end());
    }
    result.degraded.insert(result.degraded.end(), degraded_render.begin(),
                           degraded_render.end());
    result.completed = !interrupted;

    // The manifest itself gets a small retry: it is the artifact chaos runs
    // are judged by, so a transient injected fault must not take it out.
    util::Result<void> manifest_written;
    for (int attempt = 0; attempt < 3; ++attempt) {
        manifest_written = io::write_file_atomic(
            result.manifest_path,
            render_manifest(fingerprint_, result.stages, result.degraded,
                            result.completed));
        if (manifest_written) break;
    }
    if (!manifest_written) {
        warn(std::string("manifest not written after 3 attempts: ") +
             manifest_written.error().what());
    }
    return result;
}

}  // namespace ytcdn::study
