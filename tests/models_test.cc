// Unit tests for the model zoo (Table I catalog), latency regression
// models and the registry.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/latency_model.h"
#include "models/zoo.h"

namespace gfaas::models {
namespace {

TEST(ZooTest, CatalogHasAll22PaperModels) {
  const auto& catalog = table1_catalog();
  ASSERT_EQ(catalog.size(), 22u);
  EXPECT_EQ(catalog.front().name, "squeezenet1.1");
  EXPECT_EQ(catalog.back().name, "vgg19");
}

TEST(ZooTest, Table1RowValuesMatchPaper) {
  auto resnet50 = find_model("resnet50");
  ASSERT_TRUE(resnet50.ok());
  EXPECT_EQ(resnet50->occupation, MB(1701));
  EXPECT_EQ(resnet50->load_time, seconds_to_sim(2.67));
  EXPECT_EQ(resnet50->infer_time_b32, seconds_to_sim(1.28));

  auto vgg19 = find_model("vgg19");
  ASSERT_TRUE(vgg19.ok());
  EXPECT_EQ(vgg19->occupation, MB(3947));
  EXPECT_EQ(vgg19->load_time, seconds_to_sim(4.07));
  EXPECT_EQ(vgg19->infer_time_b32, seconds_to_sim(1.33));

  auto inception = find_model("inception.v3");
  ASSERT_TRUE(inception.ok());
  EXPECT_EQ(inception->load_time, seconds_to_sim(4.42));
  EXPECT_EQ(inception->infer_time_b32, seconds_to_sim(1.63));
}

TEST(ZooTest, CatalogSortedBySizeAsInPaperTable) {
  const auto& catalog = table1_catalog();
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LE(catalog[i - 1].occupation, catalog[i].occupation)
        << catalog[i - 1].name << " vs " << catalog[i].name;
  }
}

TEST(ZooTest, CatalogIdsAreDenseRowOrder) {
  const auto& catalog = table1_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog[i].id, ModelId(static_cast<std::int64_t>(i)));
  }
}

TEST(ZooTest, FindUnknownModelFails) {
  EXPECT_EQ(find_model("gpt4").status().code(), StatusCode::kNotFound);
}

TEST(ZooTest, NamesAreUnique) {
  const auto& catalog = table1_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    for (std::size_t j = i + 1; j < catalog.size(); ++j) {
      EXPECT_NE(catalog[i].name, catalog[j].name);
    }
  }
}

TEST(RegistryTest, RegisterAndLookup) {
  ModelRegistry registry;
  EXPECT_TRUE(registry.register_model(table1_catalog()[0]).ok());
  EXPECT_TRUE(registry.contains(ModelId(0)));
  EXPECT_FALSE(registry.contains(ModelId(1)));
  EXPECT_EQ(registry.get(ModelId(0))->name, "squeezenet1.1");
}

TEST(RegistryTest, DuplicateIdRejected) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.register_model(table1_catalog()[0]).ok());
  EXPECT_EQ(registry.register_model(table1_catalog()[0]).code(),
            StatusCode::kAlreadyExists);
}

TEST(RegistryTest, InvalidIdRejected) {
  ModelRegistry registry;
  ModelProfile bad;
  EXPECT_EQ(registry.register_model(bad).code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, FullCatalogFactory) {
  const ModelRegistry registry = ModelRegistry::full_catalog();
  EXPECT_EQ(registry.size(), 22u);
  EXPECT_TRUE(registry.get(ModelId(21)).ok());
  EXPECT_EQ(registry.get(ModelId(22)).status().code(), StatusCode::kNotFound);
}

TEST(LinearFitTest, ExactLineRecovered) {
  auto fit = fit_linear({1, 2, 3, 4}, {5, 7, 9, 11});  // y = 3 + 2x
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit->slope, 2.0, 1e-9);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit->predict(10), 23.0, 1e-9);
}

TEST(LinearFitTest, NoisyFitHasReasonableR2) {
  std::vector<double> xs, ys;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i);
    ys.push_back(10 + 0.5 * i + rng.normal(0, 0.5));
  }
  auto fit = fit_linear(xs, ys);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 0.5, 0.05);
  EXPECT_GT(fit->r_squared, 0.95);
}

TEST(LinearFitTest, DegenerateInputsRejected) {
  EXPECT_FALSE(fit_linear({1}, {2}).ok());
  EXPECT_FALSE(fit_linear({1, 2}, {1}).ok());
  EXPECT_FALSE(fit_linear({3, 3, 3}, {1, 2, 3}).ok());
}

TEST(BatchLatencyModelTest, AnchoredAtBatch32) {
  const SimTime t32 = seconds_to_sim(1.28);
  BatchLatencyModel model(t32, /*alpha=*/0.6);
  EXPECT_NEAR(static_cast<double>(model.predict(32)), static_cast<double>(t32), 2.0);
}

TEST(BatchLatencyModelTest, MonotonicInBatchSize) {
  BatchLatencyModel model(seconds_to_sim(1.3));
  SimTime prev = 0;
  for (std::int64_t b : {1, 2, 4, 8, 16, 32, 64}) {
    const SimTime t = model.predict(b);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(BatchLatencyModelTest, BaseCostFractionRespected) {
  const SimTime t32 = sec(1);
  BatchLatencyModel model(t32, /*alpha=*/0.5);
  // Batch 1 should cost ~ alpha*T32 + (1-alpha)*T32/32.
  EXPECT_NEAR(static_cast<double>(model.predict(1)),
              0.5 * 1e6 + 0.5 * 1e6 / 32.0, 2.0);
}

TEST(BatchLatencyModelTest, FitFromProfiledPoints) {
  // Points on the line t = 100000 + 2000 * batch.
  auto model = BatchLatencyModel::fit({1, 2, 4, 8, 16, 32},
                                      {102000, 104000, 108000, 116000, 132000, 164000});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(static_cast<double>(model->predict(64)), 228000.0, 10.0);
  EXPECT_NEAR(model->fit_params().r_squared, 1.0, 1e-9);
}

TEST(BatchLatencyModelTest, NeverPredictsBelowOneMicrosecond) {
  // t = 0.25 * (batch - 1): batch 2 predicts 0.25 µs, which must not
  // round down to 0 (a parked request always adds local-queue work).
  auto model = BatchLatencyModel::fit({1, 5}, {0, 1});
  ASSERT_TRUE(model.ok());
  for (std::int64_t b : {1, 2, 3}) EXPECT_EQ(model->predict(b), 1) << "batch " << b;
}

TEST(LoadTimeModelTest, FitAcrossCatalogMatchesTable1Scale) {
  auto model = LoadTimeModel::fit(table1_catalog());
  ASSERT_TRUE(model.ok());
  // The fitted line should land near the profiled load times.
  for (const char* name : {"squeezenet1.1", "resnet50", "vgg19"}) {
    const auto profile = find_model(name);
    const double predicted = static_cast<double>(model->predict(profile->occupation));
    const double actual = static_cast<double>(profile->load_time);
    EXPECT_NEAR(predicted / actual, 1.0, 0.35) << name;
  }
  // Base cost (process start + context init) is over a second on the
  // paper's testbed; implied bandwidth is around 1-3 GB/s.
  EXPECT_GT(model->base_cost(), sec(1));
  EXPECT_GT(model->bandwidth_bps(), 5e8);
  EXPECT_LT(model->bandwidth_bps(), 5e9);
}

TEST(RegistryTest, ReturnsProfiledTimes) {
  const ModelRegistry registry = ModelRegistry::full_catalog();
  auto load = registry.load_time(ModelId(0));
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(*load, seconds_to_sim(2.41));
  auto infer = registry.infer_time(ModelId(0), 32);
  ASSERT_TRUE(infer.ok());
  EXPECT_NEAR(static_cast<double>(*infer), 1.28e6, 2.0);
  EXPECT_FALSE(registry.load_time(ModelId(99)).ok());
  EXPECT_FALSE(registry.infer_time(ModelId(99), 32).ok());
}

TEST(RegistryTest, SparseIdsIndexOnlyWhatIsRegistered) {
  // Catalog rows keep their ids: vgg13 is 18, vgg16 19 and vgg19 21,
  // leaving 20 a hole inside the index.
  ModelRegistry registry;
  for (const char* name : {"vgg13", "vgg16", "vgg19"}) {
    ASSERT_TRUE(registry.register_model(*find_model(name)).ok()) << name;
  }
  for (const ModelId absent : {ModelId(20), ModelId(99)}) {
    EXPECT_FALSE(registry.contains(absent)) << absent.value();
    EXPECT_EQ(registry.get(absent).status().code(), StatusCode::kNotFound);
    EXPECT_FALSE(registry.occupation(absent).ok());
    EXPECT_FALSE(registry.load_time(absent).ok());
    EXPECT_FALSE(registry.infer_time(absent, 32).ok());
  }
  for (const ModelProfile& p : registry.all()) {
    EXPECT_EQ(*registry.occupation(p.id), p.occupation) << p.name;
    EXPECT_EQ(*registry.load_time(p.id), p.load_time) << p.name;
    for (std::int64_t b : {1, 8, 32}) {
      EXPECT_EQ(*registry.infer_time(p.id, b),
                BatchLatencyModel(p.infer_time_b32).predict(b))
          << p.name << " batch " << b;
    }
  }
  EXPECT_EQ(registry.get(ModelId(21))->name, "vgg19");
}

}  // namespace
}  // namespace gfaas::models
