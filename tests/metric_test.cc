// Metric core tests: distance values, metric postulates as properties,
// neighbor/recall semantics, linear-scan ground truth, and dataset I/O.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "common/scratch_dir.h"
#include "data/synthetic.h"
#include "metric/dataset.h"
#include "metric/distance.h"
#include "metric/ground_truth.h"
#include "metric/neighbor.h"

namespace simcloud {
namespace metric {
namespace {

VectorObject Obj(ObjectId id, std::vector<float> values) {
  return VectorObject(id, std::move(values));
}

// ------------------------------------------------------------- Distances

TEST(DistanceTest, L1KnownValues) {
  L1Distance d;
  EXPECT_DOUBLE_EQ(d.Distance(Obj(0, {0, 0}), Obj(1, {3, 4})), 7.0);
  EXPECT_DOUBLE_EQ(d.Distance(Obj(0, {1, -1}), Obj(1, {-1, 1})), 4.0);
  EXPECT_DOUBLE_EQ(d.Distance(Obj(0, {5}), Obj(1, {5})), 0.0);
}

TEST(DistanceTest, L2KnownValues) {
  L2Distance d;
  EXPECT_DOUBLE_EQ(d.Distance(Obj(0, {0, 0}), Obj(1, {3, 4})), 5.0);
  EXPECT_DOUBLE_EQ(d.Distance(Obj(0, {1, 1, 1, 1}), Obj(1, {0, 0, 0, 0})),
                   2.0);
}

TEST(DistanceTest, LInfKnownValues) {
  LInfDistance d;
  EXPECT_DOUBLE_EQ(d.Distance(Obj(0, {0, 0}), Obj(1, {3, 4})), 4.0);
}

TEST(DistanceTest, LpInterpolatesBetweenL1AndLinf) {
  const VectorObject a = Obj(0, {0, 0}), b = Obj(1, {3, 4});
  LpDistance p1(1.0), p2(2.0), p3(3.0);
  L1Distance l1;
  L2Distance l2;
  EXPECT_NEAR(p1.Distance(a, b), l1.Distance(a, b), 1e-9);
  EXPECT_NEAR(p2.Distance(a, b), l2.Distance(a, b), 1e-9);
  // Lp is non-increasing in p.
  EXPECT_LE(p3.Distance(a, b), p2.Distance(a, b));
  EXPECT_LE(p2.Distance(a, b), p1.Distance(a, b));
}

TEST(DistanceTest, SegmentedValidatesParameters) {
  EXPECT_FALSE(SegmentedLpDistance::Create({}).ok());
  EXPECT_FALSE(SegmentedLpDistance::Create({{0, 1.0, 1.0}}).ok());
  EXPECT_FALSE(SegmentedLpDistance::Create({{4, 0.5, 1.0}}).ok());
  EXPECT_FALSE(SegmentedLpDistance::Create({{4, 1.0, -1.0}}).ok());
  EXPECT_TRUE(SegmentedLpDistance::Create({{4, 1.0, 1.0}}).ok());
}

TEST(DistanceTest, SegmentedMatchesManualCombination) {
  auto seg = SegmentedLpDistance::Create({{2, 1.0, 2.0}, {2, 2.0, 0.5}});
  ASSERT_TRUE(seg.ok());
  const VectorObject a = Obj(0, {1, 2, 0, 0}), b = Obj(1, {3, 1, 3, 4});
  // L1 on dims {0,1}: |1-3|+|2-1| = 3; L2 on dims {2,3}: 5.
  EXPECT_NEAR(seg->Distance(a, b), 2.0 * 3 + 0.5 * 5, 1e-9);
  EXPECT_EQ(seg->TotalDimension(), 4u);
}

TEST(DistanceTest, EvaluationCounterCounts) {
  L2Distance d;
  EXPECT_EQ(d.evaluation_count(), 0u);
  d.Distance(Obj(0, {1}), Obj(1, {2}));
  d.Distance(Obj(0, {1}), Obj(1, {2}));
  EXPECT_EQ(d.evaluation_count(), 2u);
  d.ResetCounter();
  EXPECT_EQ(d.evaluation_count(), 0u);
}

TEST(DistanceTest, FactoryByName) {
  EXPECT_TRUE(MakeDistanceByName("L1").ok());
  EXPECT_TRUE(MakeDistanceByName("L2").ok());
  EXPECT_TRUE(MakeDistanceByName("Linf").ok());
  auto lp = MakeDistanceByName("Lp:3.0");
  ASSERT_TRUE(lp.ok());
  EXPECT_EQ((*lp)->Name().rfind("Lp:", 0), 0u);
  EXPECT_FALSE(MakeDistanceByName("cosine").ok());
  EXPECT_FALSE(MakeDistanceByName("Lp:0.5").ok());
}

// Property suite: metric postulates on random vectors, for every distance.
struct MetricCase {
  std::string name;
  std::shared_ptr<DistanceFunction> distance;
  size_t dimension;
};

class MetricPostulatesTest : public ::testing::TestWithParam<int> {
 protected:
  static std::vector<MetricCase> Cases() {
    std::vector<MetricCase> cases;
    cases.push_back({"L1", std::make_shared<L1Distance>(), 8});
    cases.push_back({"L2", std::make_shared<L2Distance>(), 8});
    cases.push_back({"Linf", std::make_shared<LInfDistance>(), 8});
    cases.push_back({"Lp2.5", std::make_shared<LpDistance>(2.5), 8});
    auto seg = SegmentedLpDistance::Create(
        {{3, 1.0, 1.5}, {3, 2.0, 0.5}, {2, 1.0, 2.0}});
    cases.push_back({"segmented",
                     std::make_shared<SegmentedLpDistance>(
                         std::move(seg).value()),
                     8});
    cases.push_back({"cophir", data::MakeCophirDistance(), 280});
    return cases;
  }
};

TEST_P(MetricPostulatesTest, HoldOnRandomVectors) {
  Rng rng(1000 + GetParam());
  for (const auto& test_case : MetricPostulatesTest::Cases()) {
    const auto& d = *test_case.distance;
    auto random_obj = [&](ObjectId id) {
      std::vector<float> v(test_case.dimension);
      for (auto& x : v) {
        x = static_cast<float>(rng.NextUniform(-100.0, 100.0));
      }
      return VectorObject(id, std::move(v));
    };
    for (int iter = 0; iter < 20; ++iter) {
      const VectorObject a = random_obj(0), b = random_obj(1),
                         c = random_obj(2);
      const double ab = d.Distance(a, b);
      const double ba = d.Distance(b, a);
      const double ac = d.Distance(a, c);
      const double cb = d.Distance(c, b);
      const double aa = d.Distance(a, a);
      // Non-negativity, identity, symmetry, triangle inequality.
      EXPECT_GE(ab, 0.0) << test_case.name;
      EXPECT_NEAR(aa, 0.0, 1e-9) << test_case.name;
      EXPECT_NEAR(ab, ba, 1e-9) << test_case.name;
      EXPECT_LE(ab, ac + cb + 1e-6) << test_case.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPostulatesTest,
                         ::testing::Range(0, 5));

TEST(AngularDistanceTest, KnownAngles) {
  AngularDistance d;
  const VectorObject x(0, {1.0f, 0.0f});
  const VectorObject y(1, {0.0f, 1.0f});
  const VectorObject neg_x(2, {-1.0f, 0.0f});
  const VectorObject diag(3, {1.0f, 1.0f});
  EXPECT_NEAR(d.Distance(x, y), M_PI / 2, 1e-9);
  EXPECT_NEAR(d.Distance(x, neg_x), M_PI, 1e-9);
  EXPECT_NEAR(d.Distance(x, diag), M_PI / 4, 1e-6);
  EXPECT_NEAR(d.Distance(x, x), 0.0, 1e-9);
  // Scale invariance (metric on directions).
  const VectorObject x2(4, {7.5f, 0.0f});
  EXPECT_NEAR(d.Distance(x, x2), 0.0, 1e-9);
  // Zero vector maps to the maximal angle instead of NaN.
  const VectorObject zero(5, {0.0f, 0.0f});
  EXPECT_NEAR(d.Distance(x, zero), M_PI, 1e-9);
}

TEST(AngularDistanceTest, MetricPostulatesOnSphere) {
  AngularDistance d;
  Rng rng(321);
  auto random_direction = [&](ObjectId id) {
    std::vector<float> v(12);
    for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
    return VectorObject(id, std::move(v));
  };
  for (int iter = 0; iter < 100; ++iter) {
    const VectorObject a = random_direction(0);
    const VectorObject b = random_direction(1);
    const VectorObject c = random_direction(2);
    const double ab = d.Distance(a, b);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, M_PI + 1e-9);
    EXPECT_NEAR(ab, d.Distance(b, a), 1e-9);
    EXPECT_LE(ab, d.Distance(a, c) + d.Distance(c, b) + 1e-6);
  }
}

TEST(DistanceFactoryTest, MakesEveryNamedDistance) {
  for (const char* name : {"L1", "L2", "Linf", "angular", "Lp:3"}) {
    auto distance = MakeDistanceByName(name);
    EXPECT_TRUE(distance.ok()) << name;
  }
  EXPECT_FALSE(MakeDistanceByName("Lp:0.5").ok());
  EXPECT_FALSE(MakeDistanceByName("hamming?").ok());
}

// ------------------------------------------------------ Neighbors/recall

TEST(NeighborTest, OrderingByDistanceThenId) {
  Neighbor a{5, 1.0}, b{2, 1.0}, c{9, 0.5};
  EXPECT_TRUE(c < a);
  EXPECT_TRUE(b < a);  // tie on distance, smaller id first
  EXPECT_FALSE(a < b);
}

TEST(NeighborTest, RecallMatchesPaperDefinition) {
  NeighborList exact = {{1, 0.1}, {2, 0.2}, {3, 0.3}, {4, 0.4}};
  NeighborList answer = {{1, 0.1}, {3, 0.3}};
  EXPECT_DOUBLE_EQ(RecallPercent(answer, exact), 50.0);
  EXPECT_DOUBLE_EQ(RecallPercent(exact, exact), 100.0);
  EXPECT_DOUBLE_EQ(RecallPercent({}, exact), 0.0);
  EXPECT_DOUBLE_EQ(RecallPercent({}, {}), 100.0);
}

// ---------------------------------------------------------- Ground truth

TEST(GroundTruthTest, RangeFindsExactlyWithinRadius) {
  std::vector<VectorObject> objects = {
      Obj(0, {0, 0}), Obj(1, {1, 0}), Obj(2, {0, 2}), Obj(3, {5, 5})};
  L2Distance d;
  auto result = LinearRangeSearch(objects, d, Obj(99, {0, 0}), 2.0);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 0u);
  EXPECT_EQ(result[1].id, 1u);
  EXPECT_EQ(result[2].id, 2u);
  EXPECT_DOUBLE_EQ(result[2].distance, 2.0);  // boundary is inclusive
}

TEST(GroundTruthTest, KnnReturnsKClosestSorted) {
  std::vector<VectorObject> objects;
  for (int i = 0; i < 20; ++i) {
    objects.push_back(Obj(i, {static_cast<float>(i)}));
  }
  L1Distance d;
  auto result = LinearKnnSearch(objects, d, Obj(99, {7.2f}), 3);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 7u);
  EXPECT_EQ(result[1].id, 8u);
  EXPECT_EQ(result[2].id, 6u);
  EXPECT_LE(result[0].distance, result[1].distance);
  EXPECT_LE(result[1].distance, result[2].distance);
}

TEST(GroundTruthTest, KnnHandlesSmallCollectionAndZeroK) {
  std::vector<VectorObject> objects = {Obj(0, {0.0f})};
  L1Distance d;
  EXPECT_EQ(LinearKnnSearch(objects, d, Obj(9, {1.0f}), 5).size(), 1u);
  EXPECT_TRUE(LinearKnnSearch(objects, d, Obj(9, {1.0f}), 0).empty());
}

// --------------------------------------------------------------- Dataset

TEST(DatasetTest, SaveLoadRoundTrip) {
  const ScratchDir dir;
  auto dataset = data::MakeYeastLike(5);
  const std::string path = dir.File("dataset.bin");
  ASSERT_TRUE(dataset.SaveToFile(path).ok());
  auto loaded = Dataset::LoadFromFile(path, "YEAST",
                                      std::make_shared<L1Distance>());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), dataset.size());
  EXPECT_EQ(loaded->objects()[0], dataset.objects()[0]);
  EXPECT_EQ(loaded->objects().back(), dataset.objects().back());
}

TEST(DatasetTest, LoadRejectsGarbage) {
  const ScratchDir dir;
  const std::string path = dir.File("garbage.bin");
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a dataset", f);
  fclose(f);
  EXPECT_FALSE(Dataset::LoadFromFile(path, "x",
                                     std::make_shared<L1Distance>())
                   .ok());
}

TEST(DatasetTest, ExtractQueriesRemovesThem) {
  auto dataset = data::MakeYeastLike(6);
  const size_t before = dataset.size();
  auto queries = dataset.ExtractQueries(100, 99);
  EXPECT_EQ(queries.size(), 100u);
  EXPECT_EQ(dataset.size(), before - 100);
  // None of the extracted ids remain in the collection.
  std::set<ObjectId> remaining;
  for (const auto& o : dataset.objects()) remaining.insert(o.id());
  for (const auto& q : queries) {
    EXPECT_EQ(remaining.count(q.id()), 0u);
  }
}

TEST(DatasetTest, SampleQueriesIsDeterministicAndNonDestructive) {
  auto dataset = data::MakeYeastLike(7);
  const size_t before = dataset.size();
  auto q1 = dataset.SampleQueries(10, 123);
  auto q2 = dataset.SampleQueries(10, 123);
  EXPECT_EQ(dataset.size(), before);
  ASSERT_EQ(q1.size(), q2.size());
  for (size_t i = 0; i < q1.size(); ++i) EXPECT_EQ(q1[i].id(), q2[i].id());
}

TEST(ObjectTest, SerializedSizeMatchesActual) {
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    std::vector<float> values(rng.NextBounded(300));
    for (auto& v : values) v = rng.NextFloat();
    VectorObject obj(rng.NextU64() >> (rng.NextBounded(40)),
                     std::move(values));
    BinaryWriter writer;
    obj.Serialize(&writer);
    EXPECT_EQ(writer.size(), obj.SerializedSize());
  }
}

}  // namespace
}  // namespace metric
}  // namespace simcloud
