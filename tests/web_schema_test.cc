#include <gtest/gtest.h>

#include "workload/experiment.h"
#include "workload/web_schema.h"
#include "workload/workload_runner.h"
#include "test_util.h"

namespace aac {
namespace {

TEST(WebSchema, LatticeShape) {
  WebCube cube;
  EXPECT_EQ(cube.schema().num_dims(), 4);
  EXPECT_EQ(cube.lattice().num_groupbys(), 4 * 3 * 3 * 2);
  EXPECT_EQ(cube.grid().NumChunks(cube.lattice().base_id()),
            32 * 8 * 18 * 3);
}

TEST(WebSchema, Cardinalities) {
  WebCube cube;
  EXPECT_EQ(cube.schema().dimension(0).cardinality(3), 512);   // urls
  EXPECT_EQ(cube.schema().dimension(1).cardinality(2), 160);   // regions
  EXPECT_EQ(cube.schema().dimension(2).cardinality(2), 2160);  // hours
  EXPECT_EQ(cube.schema().dimension(3).cardinality(1), 12);    // models
  EXPECT_EQ(cube.schema().dimension(2).level_name(0), "month");
}

TEST(WebSchema, ExperimentRunsEndToEnd) {
  ExperimentConfig config;
  config.cube = CubeKind::kWeb;
  config.data.num_tuples = 20'000;
  config.data.dense_dim = 2;
  config.cache_fraction = 0.6;
  config.preload = true;
  Experiment exp(config);
  EXPECT_EQ(exp.lattice().num_groupbys(), 72);

  BackendServer oracle(&exp.table(), BackendCostModel(), nullptr);
  QueryStreamConfig stream_config;
  stream_config.num_queries = 15;
  QueryStreamGenerator gen(&exp.schema(), stream_config);
  for (const QueryStreamEntry& entry : gen.Generate()) {
    std::vector<ChunkData> got =
        CopyChunks(exp.engine().ExecuteQuery(entry.query, nullptr).chunks);
    const GroupById gb = exp.lattice().IdOf(entry.query.level);
    std::vector<ChunkData> want = oracle.ExecuteChunkQuery(
        gb, ChunksForQuery(exp.grid(), entry.query)).chunks;
    ASSERT_EQ(got.size(), want.size());
    auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
      return a.chunk < b.chunk;
    };
    std::sort(got.begin(), got.end(), by_chunk);
    std::sort(want.begin(), want.end(), by_chunk);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(
          ChunkDataEquals(exp.schema().num_dims(), &got[i], &want[i]));
    }
  }
}

TEST(WebSchema, CubeKindNames) {
  EXPECT_STREQ(CubeKindName(CubeKind::kApb), "APB-1");
  EXPECT_STREQ(CubeKindName(CubeKind::kWeb), "web-analytics");
}

}  // namespace
}  // namespace aac
