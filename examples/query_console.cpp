// Query console: the text front end end-to-end. Parses queries in the
// library's compact query language, answers them through the aggregate-
// aware cache, and prints refined rows with readable member names.
//
//   $ ./query_console                          # runs a scripted session
//   $ ./query_console "AVG BY time.quarter"    # or your own queries

#include <cstdio>
#include <vector>

#include "core/query_parser.h"
#include "schema/member_catalog.h"
#include "workload/experiment.h"

using namespace aac;

int main(int argc, char** argv) {
  ExperimentConfig config;
  config.data.num_tuples = 60'000;
  config.data.dense_dim = 2;
  config.cache_fraction = 1.0;
  config.strategy = StrategyKind::kVcmc;
  config.measured_sizes = true;
  config.preload = true;
  Experiment exp(config);

  // Name a few members so results read like a report.
  MemberCatalog catalog(&exp.schema());
  catalog.SetName(2, 0, 0, "FY-A");
  catalog.SetName(2, 0, 1, "FY-B");
  for (int32_t q = 0; q < 8; ++q) {
    catalog.SetName(2, 1, q,
                    std::string("FY-") + (q < 4 ? "A" : "B") + "-Q" +
                        std::to_string(q % 4 + 1));
  }

  std::vector<std::string> queries;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) queries.emplace_back(argv[i]);
  } else {
    queries = {
        "SUM BY time.quarter",
        "AVG BY time.year",
        "COUNT BY product.division, time.year",
        "MAX BY customer.retailer WHERE customer[0:3]",
        "EXPLAIN SUM BY product.line, time.year",
        "SUM BY warehouse.bin",  // deliberate error
    };
  }

  for (std::string text : queries) {
    std::printf("> %s\n", text.c_str());
    // EXPLAIN prefix: show the routing decision instead of executing.
    bool explain = false;
    if (text.rfind("EXPLAIN ", 0) == 0 || text.rfind("explain ", 0) == 0) {
      explain = true;
      text = text.substr(8);
    }
    ParsedQuery parsed = ParseQuery(exp.schema(), text);
    if (explain && parsed.ok) {
      std::printf("%s\n", exp.engine().ExplainQuery(parsed.query).c_str());
      continue;
    }
    if (!parsed.ok) {
      std::printf("  error: %s\n\n", parsed.error.c_str());
      continue;
    }
    QueryStats stats;
    std::vector<ChunkRef> chunks =
        exp.engine().ExecuteQuery(parsed.query, &stats).chunks;
    std::vector<ResultRow> rows =
        RefineResult(exp.schema(), parsed.query, chunks);
    // Print up to 8 rows, labeled via the catalog.
    size_t shown = 0;
    for (const ResultRow& row : rows) {
      if (++shown > 8) {
        std::printf("  ... (%zu rows total)\n", rows.size());
        break;
      }
      std::string label;
      for (int d = 0; d < exp.schema().num_dims(); ++d) {
        if (parsed.query.level[d] == 0 &&
            exp.schema().dimension(d).cardinality(0) == 1) {
          continue;
        }
        if (!label.empty()) label += " / ";
        label += catalog.Name(d, parsed.query.level[d],
                              row.values[static_cast<size_t>(d)]);
      }
      std::printf("  %-40s %14.2f\n", label.c_str(), row.value);
    }
    std::printf("  [%s%s, %.2f ms]\n\n",
                stats.complete_hit ? "answered from cache" : "backend",
                stats.chunks_aggregated > 0 ? " via aggregation" : "",
                stats.TotalMs());
  }
  return 0;
}
