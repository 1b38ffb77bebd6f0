#include "study/report.hpp"

#include <exception>
#include <functional>
#include <sstream>
#include <utility>

#include "analysis/as_analysis.hpp"
#include "analysis/loadbalance_analysis.hpp"
#include "analysis/redirect_analysis.hpp"
#include "analysis/series.hpp"
#include "analysis/session_analysis.hpp"
#include "analysis/session_table.hpp"
#include "analysis/stats.hpp"
#include "analysis/subnet_analysis.hpp"
#include "cdn/video.hpp"
#include "geo/city.hpp"
#include "study/dc_map_builder.hpp"

namespace ytcdn::study {

namespace {

/// Paper's Table I rows for side-by-side comparison.
struct PaperRow {
    const char* flows;
    const char* volume_gb;
    const char* servers;
    const char* clients;
};
constexpr PaperRow kPaperTable1[] = {
    {"874649", "7061.27", "1985", "20443"}, {"134789", "580.25", "1102", "1113"},
    {"877443", "3709.98", "1977", "8348"},  {"91955", "463.1", "1081", "997"},
    {"513403", "2834.99", "1637", "6552"},
};

}  // namespace

analysis::AsciiTable make_table1(const StudyRun& run) {
    analysis::AsciiTable t({"Dataset", "Flows", "Volume[GB]", "#Servers", "#Clients",
                            "paper:Flows", "paper:GB", "paper:Srv", "paper:Cli"});
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto& ds = run.traces.datasets[i];
        const auto s = ds.summary();
        t.add_row({ds.name, std::to_string(s.flows), analysis::fmt(s.volume_gb, 2),
                   std::to_string(s.distinct_servers), std::to_string(s.distinct_clients),
                   kPaperTable1[i].flows, kPaperTable1[i].volume_gb,
                   kPaperTable1[i].servers, kPaperTable1[i].clients});
    }
    return t;
}

analysis::AsciiTable make_table2(const StudyRun& run) {
    analysis::AsciiTable t({"Dataset", "Google srv%", "Google byt%", "YT-EU srv%",
                            "YT-EU byt%", "SameAS srv%", "SameAS byt%", "Other srv%",
                            "Other byt%"});
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto row = analysis::as_breakdown(run.traces.datasets[i],
                                                run.deployment->whois(),
                                                run.deployment->local_as(i));
        t.add_row({row.dataset, analysis::fmt_pct(row.google_servers, 1),
                   analysis::fmt_pct(row.google_bytes, 1),
                   analysis::fmt_pct(row.youtube_eu_servers, 1),
                   analysis::fmt_pct(row.youtube_eu_bytes, 1),
                   analysis::fmt_pct(row.same_as_servers, 1),
                   analysis::fmt_pct(row.same_as_bytes, 1),
                   analysis::fmt_pct(row.other_servers, 1),
                   analysis::fmt_pct(row.other_bytes, 1)});
    }
    return t;
}

analysis::AsciiTable make_table3(const StudyRun& run,
                                 const std::vector<analysis::ContinentCounts>& counts) {
    analysis::AsciiTable t({"Dataset", "N. America", "Europe", "Others", "unlocated"});
    for (std::size_t i = 0; i < counts.size() && i < run.traces.datasets.size(); ++i) {
        t.add_row({run.traces.datasets[i].name, std::to_string(counts[i].north_america),
                   std::to_string(counts[i].europe), std::to_string(counts[i].others),
                   std::to_string(counts[i].unlocated)});
    }
    return t;
}

analysis::VantageFailureCounts failure_counts_of(std::string vantage,
                                                 const workload::Player::Stats& stats) {
    analysis::VantageFailureCounts c;
    c.vantage = std::move(vantage);
    c.sessions = stats.sessions;
    c.connect_timeouts = stats.connect_timeouts;
    c.connect_resets = stats.connect_resets;
    c.dns_servfails = stats.dns_servfails;
    c.stale_dns_answers = stats.stale_dns_answers;
    c.failovers = stats.failovers;
    c.failed_timeout = stats.failures.timeout;
    c.failed_reset = stats.failures.reset;
    c.failed_dns = stats.failures.dns_failure;
    c.failed_retries_exhausted = stats.failures.retries_exhausted;
    c.failed_redirect_exhausted = stats.failures.redirect_exhausted;
    c.retry_histogram = stats.retry_histogram;
    return c;
}

std::vector<analysis::VantageFailureCounts> failure_counts(const StudyRun& run) {
    std::vector<analysis::VantageFailureCounts> out;
    out.reserve(run.traces.datasets.size());
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        out.push_back(failure_counts_of(run.traces.datasets[i].name,
                                        run.traces.player_stats[i]));
    }
    return out;
}

analysis::AsciiTable make_failure_table(const StudyRun& run) {
    return analysis::failure_breakdown_table(failure_counts(run));
}

analysis::AsciiTable make_retry_table(const StudyRun& run) {
    return analysis::retry_histogram_table(failure_counts(run));
}

const std::string* FullReport::content(std::string_view name) const {
    for (const auto& a : artifacts) {
        if (a.name == name) return &a.content;
    }
    return nullptr;
}

std::string FullReport::render() const {
    std::string out;
    for (const auto& a : artifacts) {
        out += "== " + a.name + " ==\n";
        out += a.content;
        if (!a.content.empty() && a.content.back() != '\n') out += '\n';
    }
    return out;
}

namespace {

std::string render_series(const std::vector<analysis::Series>& series) {
    std::ostringstream os;
    analysis::write_series(os, series);
    return os.str();
}

analysis::Series flows_cdf_series(std::string name, const std::vector<double>& cdf) {
    analysis::Series s{std::move(name), {}};
    for (std::size_t i = 0; i < cdf.size(); ++i) {
        s.points.emplace_back(static_cast<double>(i + 1), cdf[i]);
    }
    return s;
}

std::string render_table3_artifact(const StudyRun& run, const ReportOptions& options,
                                   util::ThreadPool& pool) {
    geoloc::CbgLocator locator(
        run.deployment->rtt(),
        geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                         sim::Rng(run.config.seed ^ 0x9B),
                                         options.landmarks),
        options.cbg, run.config.seed ^ 0xCB6);
    locator.calibrate(pool);
    std::vector<analysis::ContinentCounts> counts;
    counts.reserve(run.traces.datasets.size());
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto mapping =
            cbg_dc_map(*run.deployment, run.traces.datasets[i], locator,
                       run.deployment->vantage(i), run.deployment->local_as(i), pool);
        counts.push_back(analysis::servers_per_continent(mapping.located));
    }
    return make_table3(run, counts).render();
}

std::string render_fig10(const StudyRun& run) {
    analysis::AsciiTable t({"Dataset", "1-flow", "1:pref", "1:nonpref", "2-flow",
                            "2:pp", "2:pn", "2:np", "2:nn", ">2-flow", ">2:allpref",
                            ">2:pref-then-other", ">2:nonpref-first"});
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto p = analysis::session_patterns(run.sessions[i], run.dc_columns[i],
                                                  run.preferred[i]);
        const auto m = analysis::multi_flow_patterns(run.sessions[i], run.dc_columns[i],
                                                     run.preferred[i]);
        t.add_row({run.traces.datasets[i].name, analysis::fmt_pct(p.single_flow, 2),
                   analysis::fmt_pct(p.single_preferred, 2),
                   analysis::fmt_pct(p.single_non_preferred, 2),
                   analysis::fmt_pct(p.two_flow, 2), analysis::fmt_pct(p.two_pref_pref, 2),
                   analysis::fmt_pct(p.two_pref_nonpref, 2),
                   analysis::fmt_pct(p.two_nonpref_pref, 2),
                   analysis::fmt_pct(p.two_nonpref_nonpref, 2),
                   analysis::fmt_pct(p.more_flows, 2),
                   analysis::fmt_pct(m.all_preferred, 2),
                   analysis::fmt_pct(m.first_preferred_then_other, 2),
                   analysis::fmt_pct(m.first_non_preferred, 2)});
    }
    return t.render();
}

std::string render_fig12(const StudyRun& run) {
    analysis::AsciiTable t({"Dataset", "Subnet", "flows%", "non-preferred%"});
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto& vp = run.deployment->vantage(i);
        std::vector<analysis::NamedSubnet> subnets;
        subnets.reserve(vp.subnets.size());
        for (const auto& s : vp.subnets) subnets.push_back({s.name, s.prefix});
        const auto shares = analysis::subnet_breakdown(
            run.tables[i], run.dc_columns[i], run.preferred[i], subnets);
        for (const auto& share : shares) {
            t.add_row({run.traces.datasets[i].name, share.name,
                       analysis::fmt_pct(share.all_flows_share, 2),
                       analysis::fmt_pct(share.non_preferred_share, 2)});
        }
    }
    return t.render();
}

std::string render_resolutions(const StudyRun& run) {
    analysis::AsciiTable t({"Dataset", "Resolution", "flow%", "byte%"});
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        for (const auto& share : analysis::resolution_breakdown(run.tables[i])) {
            t.add_row({run.traces.datasets[i].name,
                       std::string(cdn::to_string(share.resolution)),
                       analysis::fmt_pct(share.flow_share, 2),
                       analysis::fmt_pct(share.byte_share, 2)});
        }
    }
    return t.render();
}

}  // namespace

FullReport make_full_report(const StudyRun& run, util::ThreadPool& pool,
                            const ReportOptions& options) {
    // Every artifact is a pure function of the immutable run: closures only
    // read `run` (and fork their own probe RNGs, for Table III), so they can
    // execute in any order on any thread. parallel_map returns them in list
    // order, making the report bytes independent of the schedule.
    using Job = std::pair<std::string, std::function<std::string()>>;
    std::vector<Job> jobs;
    jobs.reserve(20);

    jobs.emplace_back("table1.txt", [&run] { return make_table1(run).render(); });
    jobs.emplace_back("table2.txt", [&run] { return make_table2(run).render(); });
    if (options.include_table3) {
        jobs.emplace_back("table3.txt",
                          [&run, &options, &pool] {
                              return render_table3_artifact(run, options, pool);
                          });
    }
    jobs.emplace_back("failure_breakdown.txt",
                      [&run] { return make_failure_table(run).render(); });
    jobs.emplace_back("retry_histogram.txt",
                      [&run] { return make_retry_table(run).render(); });
    jobs.emplace_back("resolutions.txt",
                      [&run] { return render_resolutions(run); });

    jobs.emplace_back("fig04_flow_sizes.dat", [&run] {
        std::vector<analysis::Series> series;
        for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
            std::vector<double> sizes;
            sizes.reserve(run.tables[i].bytes.size());
            for (const std::uint64_t b : run.tables[i].bytes) {
                sizes.push_back(static_cast<double>(b));
            }
            series.push_back({run.traces.datasets[i].name,
                              analysis::EmpiricalCdf(std::move(sizes)).curve(120)});
        }
        return render_series(series);
    });

    jobs.emplace_back("fig05_gap_sensitivity.dat", [&run] {
        std::vector<analysis::Series> series;
        const auto us = run.vp_index("US-Campus");
        for (const double gap : {1.0, 5.0, 10.0, 60.0, 300.0}) {
            const auto cdf = analysis::flows_per_session_cdf(
                analysis::SessionTable::build(run.tables[us], gap));
            series.push_back(flows_cdf_series(
                "T=" + std::to_string(static_cast<int>(gap)) + "s", cdf));
        }
        return render_series(series);
    });

    jobs.emplace_back("fig06_flows_per_session.dat", [&run] {
        std::vector<analysis::Series> series;
        for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
            series.push_back(flows_cdf_series(
                run.traces.datasets[i].name,
                analysis::flows_per_session_cdf(run.sessions[i])));
        }
        return render_series(series);
    });

    jobs.emplace_back("fig07_bytes_vs_rtt.dat", [&run] {
        std::vector<analysis::Series> series;
        for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
            series.push_back(
                analysis::bytes_vs_rtt(run.traces.datasets[i], run.maps[i]));
        }
        return render_series(series);
    });

    jobs.emplace_back("fig08_bytes_vs_distance.dat", [&run] {
        std::vector<analysis::Series> series;
        for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
            series.push_back(
                analysis::bytes_vs_distance(run.traces.datasets[i], run.maps[i]));
        }
        return render_series(series);
    });

    jobs.emplace_back("fig09_hourly_nonpreferred_cdf.dat", [&run] {
        std::vector<analysis::Series> series;
        for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
            const auto cdf = analysis::hourly_non_preferred_fraction(
                run.tables[i], run.dc_columns[i], run.preferred[i]);
            series.push_back({run.traces.datasets[i].name, cdf.curve(60)});
        }
        return render_series(series);
    });

    jobs.emplace_back("fig10_session_patterns.txt",
                      [&run] { return render_fig10(run); });

    jobs.emplace_back("fig11_eu2_load_balancing.dat", [&run] {
        const auto eu2 = run.vp_index("EU2");
        auto hourly = analysis::hourly_preferred_series(
            run.tables[eu2], run.dc_columns[eu2], run.preferred[eu2]);
        return render_series({std::move(hourly.fraction_preferred),
                              std::move(hourly.flows_per_hour)});
    });

    jobs.emplace_back("fig12_subnet_breakdown.txt",
                      [&run] { return render_fig12(run); });

    jobs.emplace_back("fig13_video_redirect_counts_cdf.dat", [&run] {
        std::vector<analysis::Series> series;
        for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
            const auto counts = analysis::video_non_preferred_counts(
                run.tables[i], run.dc_columns[i], run.preferred[i]);
            if (!counts.empty()) {
                series.push_back({run.traces.datasets[i].name, counts.curve(60)});
            }
        }
        return render_series(series);
    });

    jobs.emplace_back("fig14_hotspot_videos.dat", [&run] {
        const auto adsl = run.vp_index("EU1-ADSL");
        const auto top = analysis::top_redirected_videos(
            run.tables[adsl], run.dc_columns[adsl], run.preferred[adsl], 4);
        std::vector<analysis::Series> series;
        for (std::size_t v = 0; v < top.size(); ++v) {
            auto load = analysis::video_hourly_load(run.tables[adsl], run.dc_columns[adsl],
                                                    run.preferred[adsl], top[v]);
            load.all.name = "video" + std::to_string(v + 1) + " all";
            load.non_preferred.name =
                "video" + std::to_string(v + 1) + " non-preferred";
            series.push_back(std::move(load.all));
            series.push_back(std::move(load.non_preferred));
        }
        return render_series(series);
    });

    jobs.emplace_back("fig15_server_load.dat", [&run] {
        const auto adsl = run.vp_index("EU1-ADSL");
        auto load = analysis::preferred_dc_server_load(
            run.tables[adsl], run.dc_columns[adsl], run.preferred[adsl]);
        return render_series({std::move(load.avg), std::move(load.max)});
    });

    jobs.emplace_back("fig16_hot_server_sessions.dat", [&run] {
        const auto adsl = run.vp_index("EU1-ADSL");
        const auto top = analysis::top_redirected_videos(
            run.tables[adsl], run.dc_columns[adsl], run.preferred[adsl], 1);
        if (top.empty()) return std::string{};
        auto hot = analysis::hot_server_sessions(run.tables[adsl], run.sessions[adsl],
                                                 run.dc_columns[adsl],
                                                 run.preferred[adsl], top.front());
        return render_series({std::move(hot.all_preferred),
                              std::move(hot.first_preferred_then_other),
                              std::move(hot.others)});
    });

    // Per-artifact fault isolation: one failing closure degrades to a
    // placeholder naming the artifact and the error, instead of taking the
    // other ~19 artifacts down with it. Strict mode (CI) keeps fail-fast by
    // letting the exception propagate out of parallel_map.
    const bool strict = run.config.effective_strict_artifacts();
    using Rendered = std::pair<std::string, bool>;  // content, degraded?
    auto contents = util::parallel_map(pool, jobs, [strict](const Job& job) {
        if (strict) return Rendered{job.second(), false};
        try {
            return Rendered{job.second(), false};
        } catch (const std::exception& e) {
            return Rendered{
                "!! artifact '" + job.first + "' failed: " + e.what() + "\n",
                true};
        }
    });

    FullReport report;
    report.artifacts.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        report.artifacts.push_back({jobs[i].first, std::move(contents[i].first)});
        if (contents[i].second) report.degraded.push_back(jobs[i].first);
    }
    return report;
}

FullReport make_full_report(const StudyRun& run, const ReportOptions& options) {
    util::ThreadPool pool(run.config.effective_threads());
    return make_full_report(run, pool, options);
}

}  // namespace ytcdn::study
