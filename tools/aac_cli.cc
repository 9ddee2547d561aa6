// aac — command-line front end to the aggregate-aware cache.
//
//   aac info
//       Print the APB-1-like cube: dimensions, lattice, chunk counts.
//
//   aac generate --out facts.csv [--tuples N] [--seed S]
//       Generate synthetic fact data as CSV (LoadFactCsv format).
//
//   aac query "SUM BY product.class, time.month" [more queries...]
//       [--csv facts.csv] [--cache-fraction F] [--explain]
//       Answer textual queries through the aggregate-aware cache; with
//       --csv, over your own data instead of generated data.
//
// Exit status: 0 on success, 1 on a usage or data error.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/query_parser.h"
#include "workload/csv_loader.h"
#include "workload/experiment.h"

namespace aac {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  aac info\n"
               "  aac generate --out FILE [--tuples N] [--seed S]\n"
               "  aac query QUERY... [--csv FILE] [--cache-fraction F] "
               "[--explain]\n");
  return 1;
}

struct Flags {
  std::string out;
  std::string csv;
  int64_t tuples = 100'000;
  uint64_t seed = 42;
  double cache_fraction = 0.8;
  bool explain = false;
  std::vector<std::string> positional;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return false;
      flags->out = v;
    } else if (arg == "--csv") {
      const char* v = next("--csv");
      if (v == nullptr) return false;
      flags->csv = v;
    } else if (arg == "--tuples") {
      const char* v = next("--tuples");
      if (v == nullptr) return false;
      flags->tuples = std::strtoll(v, nullptr, 10);
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) return false;
      flags->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--cache-fraction") {
      const char* v = next("--cache-fraction");
      if (v == nullptr) return false;
      flags->cache_fraction = std::strtod(v, nullptr);
    } else if (arg == "--explain") {
      flags->explain = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    } else {
      flags->positional.push_back(arg);
    }
  }
  return true;
}

int CmdInfo() {
  ApbCube cube;
  std::printf("APB-1-like cube\n");
  for (int d = 0; d < cube.schema().num_dims(); ++d) {
    const Dimension& dim = cube.schema().dimension(d);
    std::printf("  %-9s levels:", dim.name().c_str());
    for (int l = 0; l < dim.num_levels(); ++l) {
      std::printf(" %s(%lld)", dim.level_name(l).c_str(),
                  static_cast<long long>(dim.cardinality(l)));
    }
    std::printf("\n");
  }
  std::printf("lattice: %d group-bys, %lld chunks over all levels, %lld "
              "base chunks\n",
              cube.lattice().num_groupbys(),
              static_cast<long long>(cube.grid().TotalChunksAllGroupBys()),
              static_cast<long long>(
                  cube.grid().NumChunks(cube.lattice().base_id())));
  return 0;
}

int CmdGenerate(const Flags& flags) {
  if (flags.out.empty()) {
    std::fprintf(stderr, "generate needs --out FILE\n");
    return 1;
  }
  ApbCube cube;
  DataGenConfig config;
  config.num_tuples = flags.tuples;
  config.seed = flags.seed;
  config.dense_dim = 2;
  std::vector<Cell> cells = GenerateFactData(cube.schema(), config);
  if (!WriteFactCsv(cube.schema(), cells, flags.out)) return 1;
  std::printf("wrote %zu tuples to %s\n", cells.size(), flags.out.c_str());
  return 0;
}

int CmdQuery(const Flags& flags) {
  if (flags.positional.empty()) {
    std::fprintf(stderr, "query needs at least one QUERY string\n");
    return 1;
  }
  ExperimentConfig config;
  config.cache_fraction = flags.cache_fraction;
  config.strategy = StrategyKind::kVcmc;
  config.policy = PolicyKind::kTwoLevel;
  config.measured_sizes = true;
  config.preload = true;
  config.data.num_tuples = flags.tuples;
  config.data.seed = flags.seed;
  config.data.dense_dim = 2;

  std::unique_ptr<Experiment> exp;
  if (!flags.csv.empty()) {
    ApbCube cube;
    CsvLoadResult loaded = LoadFactCsv(cube.schema(), nullptr, flags.csv);
    if (!loaded.ok) {
      std::fprintf(stderr, "csv: %s\n", loaded.error.c_str());
      return 1;
    }
    std::printf("loaded %lld rows from %s\n",
                static_cast<long long>(loaded.rows), flags.csv.c_str());
    config.cells = std::move(loaded.cells);
    exp = std::make_unique<Experiment>(config);
  } else {
    exp = std::make_unique<Experiment>(config);
    std::printf("generated %lld tuples (seed %llu)\n",
                static_cast<long long>(exp->table().num_tuples()),
                static_cast<unsigned long long>(flags.seed));
  }

  for (const std::string& text : flags.positional) {
    std::printf("> %s\n", text.c_str());
    ParsedQuery parsed = ParseQuery(exp->schema(), text);
    if (!parsed.ok) {
      std::fprintf(stderr, "  error: %s\n", parsed.error.c_str());
      return 1;
    }
    if (flags.explain) {
      std::printf("%s\n", exp->engine().ExplainQuery(parsed.query).c_str());
      continue;
    }
    QueryStats stats;
    std::vector<ChunkRef> chunks =
        exp->engine().ExecuteQuery(parsed.query, &stats).chunks;
    std::vector<ResultRow> rows =
        RefineResult(exp->schema(), parsed.query, chunks);
    size_t shown = 0;
    for (const ResultRow& row : rows) {
      if (++shown > 20) {
        std::printf("  ... (%zu rows)\n", rows.size());
        break;
      }
      std::string key;
      for (int d = 0; d < exp->schema().num_dims(); ++d) {
        if (!key.empty()) key += ",";
        key += std::to_string(row.values[static_cast<size_t>(d)]);
      }
      std::printf("  (%s) %.2f\n", key.c_str(), row.value);
    }
    std::printf("  [%s, %.2f ms]\n", stats.complete_hit ? "cache" : "backend",
                stats.TotalMs());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 1;
  const std::string command = argv[1];
  if (command == "info") return CmdInfo();
  if (command == "generate") return CmdGenerate(flags);
  if (command == "query") return CmdQuery(flags);
  return Usage();
}

}  // namespace
}  // namespace aac

int main(int argc, char** argv) { return aac::Main(argc, argv); }
