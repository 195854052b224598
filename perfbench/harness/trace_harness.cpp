// Traced per-layer run of the benchmark: calls the layers' public entry
// points in-process and times each call as a span. Spans are kept in memory
// and written out, one JSON object per line, when the run ends.
//
//   perfbench_trace INPUT SECONDS TRACE_OUT PLANS_OUT
//
// INPUT holds one item per line:
//   plan RATIO DEMAND CAP OPTIMIZE(0|1)   streaming request (all layers)
//   serve JSON                            a wire request of the daemon
//   fleet USERS KILL                      a `dmfstream fleet` mix
// Whole rounds over all items repeat until SECONDS have passed (at least
// one). stdout gets one JSON object: the median of every per-layer metric,
// plus the median engine.plan_ms of each plan item in input order.
// PLANS_OUT gets the first round's plans, one JSON object per line, for the
// benchmark's plan oracle.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/mdst.h"
#include "engine/pass_cache.h"
#include "engine/serialize.h"
#include "engine/streaming.h"
#include "fleet/dispatcher.h"
#include "mixgraph/builders.h"
#include "report/json.h"
#include "sched/schedule.h"
#include "server/canonical.h"
#include "server/plan_cache.h"
#include "server/service.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint32_t round = 0;
  std::uint32_t item = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  std::uint32_t begin(const char* name) {
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.name = name;
    span.round = round;
    span.item = item;
    span.startNs = now();
    spans_.push_back(span);
    stack_.push_back(span.id);
    return span.id;
  }

  // Ends the innermost span and returns its duration in nanoseconds.
  double end() {
    Span& span = spans_[stack_.back() - 1];
    stack_.pop_back();
    span.endNs = now();
    return static_cast<double>(span.endNs - span.startNs);
  }

  // Times one call as a span; returns the call's result and its duration.
  template <typename F>
  auto timed(const char* name, double& ns, F&& call) {
    begin(name);
    auto result = call();
    ns = end();
    return result;
  }

  [[nodiscard]] double elapsedSeconds() const {
    return static_cast<double>(now()) * 1e-9;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << R"({"id":)" << s.id << R"(,"parent":)" << s.parent
          << R"(,"name":")" << s.name << R"(","start_ns":)" << s.startNs
          << R"(,"dur_ns":)" << (s.endNs - s.startNs) << R"(,"round":)"
          << s.round << R"(,"item":)" << s.item << "}\n";
    }
    if (!out) throw std::runtime_error("cannot write " + path);
  }

  std::uint32_t round = 0;
  std::uint32_t item = 0;

 private:
  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

struct PlanItem {
  std::string ratio;
  std::uint64_t demand = 0;
  unsigned cap = 0;
  bool optimize = false;
};

struct FleetItem {
  std::string users;
  std::string kill;
};

struct Input {
  std::vector<PlanItem> plans;
  std::vector<std::string> serve;
  std::vector<FleetItem> fleets;
};

Input readInput(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Input input;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "plan") {
      PlanItem item;
      int optimize = 0;
      fields >> item.ratio >> item.demand >> item.cap >> optimize;
      item.optimize = optimize != 0;
      input.plans.push_back(item);
    } else if (kind == "serve") {
      std::string rest;
      std::getline(fields >> std::ws, rest);
      input.serve.push_back(rest);
    } else if (kind == "fleet") {
      FleetItem item;
      fields >> item.users >> item.kill;
      input.fleets.push_back(item);
    } else if (!kind.empty()) {
      throw std::runtime_error("unknown input line: " + line);
    }
    if (!fields && kind != "serve") {
      throw std::runtime_error("malformed input line: " + line);
    }
  }
  return input;
}

dmf::Ratio parseRatio(const std::string& text) {
  auto ratio = dmf::Ratio::parse(text);
  if (!ratio) throw std::runtime_error("bad ratio " + text);
  return *ratio;
}

using Samples = std::map<std::string, std::vector<double>>;

dmf::engine::StreamingPlan plan(const dmf::engine::MdstEngine& engine,
                                const PlanItem& item) {
  dmf::engine::StreamingRequest request;
  request.demand = item.demand;
  request.storageCap = item.cap;
  return item.optimize ? dmf::engine::planStreamingOptimized(engine, request)
                       : dmf::engine::planStreaming(engine, request);
}

void tracePlan(Tracer& tracer, const PlanItem& item, Samples& samples,
               std::vector<std::vector<double>>& planMs, std::ostream* plans) {
  using namespace dmf;
  const Ratio ratio = parseRatio(item.ratio);
  const auto mm = mixgraph::Algorithm::MM;
  double ns = 0;
  tracer.begin("request");

  auto graph = tracer.timed("mixgraph.buildGraph", ns,
                            [&] { return mixgraph::buildGraph(ratio, mm); });
  samples["mixgraph.build_us"].push_back(ns / 1e3);

  const engine::MdstEngine engine(ratio);
  const unsigned mixers = engine.defaultMixers();
  auto forest = tracer.timed("forest.buildForest", ns, [&] {
    return engine.buildForest(mm, item.demand);
  });
  const auto tasks = static_cast<double>(forest.taskCount());
  samples["forest.build_ns_per_task"].push_back(ns / tasks);
  samples["forest.tasks_at_D"].push_back(tasks);

  auto srs = tracer.timed("sched.SRS", ns, [&] {
    return engine::schedule(forest, engine::Scheme::kSRS, mixers);
  });
  samples["sched.srs_ms_at_D"].push_back(ns / 1e6);
  samples["sched.srs_ns_per_task"].push_back(ns / tasks);
  auto mms = tracer.timed("sched.MMS", ns, [&] {
    return engine::schedule(forest, engine::Scheme::kMMS, mixers);
  });
  samples["sched.mms_ns_per_task"].push_back(ns / tasks);
  const unsigned storage = tracer.timed("sched.countStorage", ns, [&] {
    return sched::countStorage(forest, srs);
  });
  samples["sched.storage_ns_per_task"].push_back(ns / tasks);

  // A fresh engine, as a cold CLI call has: the plan includes graph build.
  const engine::MdstEngine planner(ratio);
  auto result = tracer.timed(item.optimize ? "engine.planStreamingOptimized"
                                           : "engine.planStreaming",
                             ns, [&] { return plan(planner, item); });
  samples["engine.plan_ms"].push_back(ns / 1e6);
  planMs[tracer.item].push_back(ns / 1e6);
  auto pass = tracer.timed("engine.evaluatePass", ns, [&] {
    return engine::evaluatePass(planner, mm, engine::Scheme::kSRS,
                                result.mixers, result.perPassDemand);
  });
  samples["engine.eval_pass_ms_at_Dprime"].push_back(ns / 1e6);

  const std::string bytes = tracer.timed("report.toJson.dump", ns, [&] {
    return engine::toJson(result).dump();
  });
  samples["report.serialize_us"].push_back(ns / 1e3);
  samples["report.plan_bytes"].push_back(static_cast<double>(bytes.size()));
  tracer.end();

  if (plans != nullptr) {
    *plans << R"({"ratio":")" << item.ratio << R"(","demand":)" << item.demand
           << R"(,"cap":)" << item.cap << R"(,"plan":)" << bytes << "}\n";
  }
  // Keep the results observable so no call is optimized away.
  if (graph.nodeCount() == 0 || mms.completionTime == 0 ||
      storage > forest.taskCount() || pass.demand != result.perPassDemand) {
    throw std::logic_error("inconsistent layer results");
  }
}

void traceServer(Tracer& tracer, const std::vector<std::string>& lines,
                 Samples& samples) {
  using namespace dmf;
  server::ServiceOptions options;
  options.jobs = 1;
  server::PlanService service(options);
  server::PlanCache cache(server::PlanCache::Options{});
  double ns = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    tracer.item = static_cast<std::uint32_t>(i);
    const std::string& line = lines[i];
    tracer.begin("server.request");
    const std::string key = tracer.timed("server.parse_canon", ns, [&] {
      return server::canonicalize(
                 server::PlanRequest::fromJson(report::Json::parse(line)))
          .key();
    });
    samples["server.parse_canon_us"].push_back(ns / 1e3);
    const std::string cold = tracer.timed(
        "server.handle.cold", ns, [&] { return service.handle(line); });
    samples["server.handle_cold_ms"].push_back(ns / 1e6);
    for (int repeat = 0; repeat < 5; ++repeat) {
      const std::string hit = tracer.timed(
          "server.handle.hit", ns, [&] { return service.handle(line); });
      samples["server.handle_hit_us"].push_back(ns / 1e3);
      if (hit.find(R"("source":"cache")") == std::string::npos) {
        throw std::logic_error("repeated request missed the cache: " + hit);
      }
    }
    cache.put(key, cold);
    for (int repeat = 0; repeat < 5; ++repeat) {
      auto got = tracer.timed("server.PlanCache.get", ns,
                              [&] { return cache.get(key); });
      samples["server.cache_get_us"].push_back(ns / 1e3);
      if (!got || *got != cold) throw std::logic_error("PlanCache lost " + key);
    }
    tracer.end();
  }
}

void traceFleet(Tracer& tracer, const std::vector<FleetItem>& mixes,
                Samples& samples) {
  using namespace dmf;
  double ns = 0;
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    tracer.item = static_cast<std::uint32_t>(i);
    const auto users = fleet::parseUsers(mixes[i].users);
    fleet::DispatcherOptions options;
    options.chips = fleet::defaultFleet(8);
    options.policy = "wfq";
    options.jobs = 1;
    options.kill = fleet::parseKill(mixes[i].kill);
    tracer.begin("fleet.mix");
    auto result = tracer.timed("fleet.dispatchFleet", ns, [&] {
      return fleet::dispatchFleet(users, options);
    });
    const double dispatchMs = ns / 1e6;
    double planMs = 0;
    tracer.begin("fleet.plan_users");
    for (const auto& user : users) {
      const engine::MdstEngine engine(user.ratio);
      engine::StreamingRequest request = user.request;
      request.jobs = 1;
      auto userPlan = tracer.timed("engine.planStreaming", ns, [&] {
        return user.optimize ? engine::planStreamingOptimized(engine, request)
                             : engine::planStreaming(engine, request);
      });
      planMs += ns / 1e6;
      if (userPlan.passes.empty()) throw std::logic_error("empty user plan");
    }
    tracer.end();
    tracer.end();
    samples["fleet.dispatch_ms"].push_back(dispatchMs);
    samples["fleet.plan_ms"].push_back(planMs);
    samples["fleet.placement_ms"].push_back(dispatchMs - planMs);
    samples["fleet.placements"].push_back(static_cast<double>(result.log.size()));
    samples["fleet.migrations"].push_back(static_cast<double>(result.migrations));
  }
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) {
    std::cerr << "usage: perfbench_trace INPUT SECONDS TRACE_OUT PLANS_OUT\n";
    return 1;
  }
  try {
    const Input input = readInput(argv[1]);
    const double seconds = std::stod(argv[2]);
    Tracer tracer;
    Samples samples;
    std::vector<std::vector<double>> planMs(input.plans.size());
    std::ofstream plans(argv[4]);
    std::uint32_t rounds = 0;
    do {
      tracer.round = rounds;
      tracer.begin("round");
      for (std::size_t i = 0; i < input.plans.size(); ++i) {
        tracer.item = static_cast<std::uint32_t>(i);
        tracePlan(tracer, input.plans[i], samples, planMs,
                  rounds == 0 ? &plans : nullptr);
      }
      traceServer(tracer, input.serve, samples);
      traceFleet(tracer, input.fleets, samples);
      tracer.end();
      ++rounds;
    } while (tracer.elapsedSeconds() < seconds);
    plans.close();
    tracer.write(argv[3]);

    std::ostringstream out;
    out.precision(17);
    out << R"({"rounds":)" << rounds << R"(,"metrics":{)";
    const char* sep = "";
    for (const auto& [name, values] : samples) {
      out << sep << '"' << name << R"(":)" << median(values);
      sep = ",";
    }
    out << R"(},"plan_ms_by_item":[)";
    sep = "";
    for (const auto& values : planMs) {
      out << sep << median(values);
      sep = ",";
    }
    out << "]}";
    std::cout << out.str() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_trace: " << error.what() << "\n";
    return 1;
  }
}
