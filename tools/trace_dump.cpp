// Renders the span trace of golden congested-PA scenarios.
//
// Usage:
//   trace_dump                                   # fingerprint of all 12 cases
//   trace_dump --family grid --model congest     # one case
//   trace_dump --out run.trace.json              # Chrome trace-event JSON
//   trace_dump --metrics                         # append the metrics registry
//
// The fingerprint on stdout is the deterministic text form pinned by
// tests/test_trace_determinism.cpp; the --out file loads in Perfetto /
// chrome://tracing with simulated rounds as the time axis (see
// docs/OBSERVABILITY.md).
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "golden_scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "util/flags.hpp"

namespace {

std::vector<std::string> selected_families(const dls::Flags& flags) {
  std::vector<std::string> choices(std::begin(dls::golden::kFamilies),
                                   std::end(dls::golden::kFamilies));
  choices.push_back("all");
  const std::string want = flags.get_choice("family", "all", choices);
  if (want != "all") return {want};
  choices.pop_back();
  return choices;
}

std::vector<dls::PaModel> selected_models(const dls::Flags& flags) {
  using dls::PaModel;
  const std::string want = flags.get_choice(
      "model", "all", {"supported", "congest", "ncc", "all"});
  if (want == "supported") return {PaModel::kSupportedCongest};
  if (want == "congest") return {PaModel::kCongest};
  if (want == "ncc") return {PaModel::kNcc};
  return {PaModel::kSupportedCongest, PaModel::kCongest, PaModel::kNcc};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dls;
  const Flags flags(argc, argv, {"family", "model", "out", "metrics"});
  const auto families = selected_families(flags);
  const auto models = selected_models(flags);
  const std::string out_path = flags.get("out", "");

  // All selected cases run under one tracer, each wrapped in a scenario span,
  // so the dump is a single self-contained trace with one timeline per
  // case ledger.
  Tracer tracer;
  {
    TraceScope scope(&tracer);
    for (const std::string& family : families) {
      for (const PaModel model : models) {
        ScopedSpan span(&tracer,
                        "golden/" + family + "-" + golden::model_name(model),
                        SpanKind::kScenario);
        const CongestedPaOutcome outcome =
            golden::run_golden_case(family, model);
        span.counter("total-rounds", outcome.total_rounds);
        span.counter("messages", outcome.ledger.total_messages());
      }
    }
  }

  std::cout << trace_fingerprint(tracer);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open trace output: " << out_path << "\n";
      return 1;
    }
    out << chrome_trace_json(tracer);
    std::cerr << "wrote " << tracer.spans().size() << " spans to " << out_path
              << "\n";
  }
  if (flags.get_bool("metrics", false)) {
    std::cout << "\n" << MetricsRegistry::global().export_text();
  }
  return 0;
}
