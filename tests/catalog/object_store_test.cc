#include "catalog/object_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "catalog/sky_generator.h"
#include "core/coords.h"

namespace sdss::catalog {
namespace {

std::vector<PhotoObj> SmallSky(uint64_t galaxies = 3000, uint64_t stars = 2000,
                               uint64_t quasars = 50) {
  SkyModel model;
  model.seed = 17;
  model.num_galaxies = galaxies;
  model.num_stars = stars;
  model.num_quasars = quasars;
  return SkyGenerator(model).Generate();
}

TEST(ObjectStoreTest, InsertAndCount) {
  ObjectStore store;
  auto objs = SmallSky(100, 100, 10);
  for (const auto& o : objs) {
    ASSERT_TRUE(store.Insert(o).ok());
  }
  EXPECT_EQ(store.object_count(), objs.size());
  EXPECT_GT(store.container_count(), 0u);
}

TEST(ObjectStoreTest, BulkLoadMatchesInsert) {
  auto objs = SmallSky(500, 500, 20);
  ObjectStore a, b;
  for (const auto& o : objs) ASSERT_TRUE(a.Insert(o).ok());
  ASSERT_TRUE(b.BulkLoad(objs).ok());
  EXPECT_EQ(a.object_count(), b.object_count());
  EXPECT_EQ(a.container_count(), b.container_count());
  EXPECT_EQ(a.DensityMap(), b.DensityMap());
}

TEST(ObjectStoreTest, ObjectsLandInTheirTrixelContainer) {
  ObjectStore store;
  auto objs = SmallSky(300, 0, 0);
  ASSERT_TRUE(store.BulkLoad(objs).ok());
  htm::HtmIndex index(store.cluster_level());
  for (const auto& [raw, container] : store.containers()) {
    for (const PhotoObj& o : container.columnar.Materialize()) {
      EXPECT_EQ(index.Locate(o.pos).raw(), raw);
    }
  }
}

TEST(ObjectStoreTest, TagsParallelObjects) {
  ObjectStore store;
  ASSERT_TRUE(store.BulkLoad(SmallSky(200, 200, 10)).ok());
  std::vector<uint64_t> object_ids, tag_ids;
  store.ForEachObject(
      [&](const PhotoObj& o) { object_ids.push_back(o.obj_id); });
  store.ForEachTag([&](const TagObj& t) { tag_ids.push_back(t.obj_id); });
  EXPECT_EQ(object_ids.size(), store.object_count());
  EXPECT_EQ(tag_ids, object_ids);
}

TEST(ObjectStoreTest, TagsCanBeDisabled) {
  ObjectStore store(StoreOptions{.cluster_level = 6, .build_tags = false});
  ASSERT_TRUE(store.BulkLoad(SmallSky(100, 0, 0)).ok());
  StoreStats stats = store.Stats();
  EXPECT_EQ(stats.tag_bytes, 0u);
  EXPECT_GT(stats.full_bytes, 0u);
  size_t tags = 0;
  store.ForEachTag([&tags](const TagObj&) { ++tags; });
  EXPECT_EQ(tags, 0u);
}

TEST(ObjectStoreTest, StatsAggregate) {
  ObjectStore store;
  ASSERT_TRUE(store.BulkLoad(SmallSky()).ok());
  StoreStats stats = store.Stats();
  EXPECT_EQ(stats.object_count, store.object_count());
  EXPECT_EQ(stats.container_count, store.container_count());
  EXPECT_EQ(stats.full_bytes, stats.object_count * sizeof(PhotoObj));
  EXPECT_EQ(stats.tag_bytes, stats.object_count * sizeof(TagObj));
  EXPECT_GE(stats.max_container_objects, 1u);
  EXPECT_GT(stats.mean_container_objects, 0.0);
}

TEST(ObjectStoreTest, ForEachVisitsEverythingOnce) {
  ObjectStore store;
  auto objs = SmallSky(400, 300, 10);
  ASSERT_TRUE(store.BulkLoad(objs).ok());
  std::set<uint64_t> seen;
  store.ForEachObject([&](const PhotoObj& o) {
    EXPECT_TRUE(seen.insert(o.obj_id).second);
  });
  EXPECT_EQ(seen.size(), objs.size());

  std::set<uint64_t> tag_seen;
  store.ForEachTag([&](const TagObj& t) {
    EXPECT_TRUE(tag_seen.insert(t.obj_id).second);
  });
  EXPECT_EQ(tag_seen, seen);
}

TEST(ObjectStoreTest, QueryRegionIsExact) {
  ObjectStore store;
  auto objs = SmallSky();
  ASSERT_TRUE(store.BulkLoad(objs).ok());

  // A cone near the footprint center (north galactic cap).
  Vec3 center = EquatorialUnitVector({0.0, 90.0, Frame::kGalactic});
  SphericalCoord eq = ToSpherical(center, Frame::kEquatorial);
  htm::Region region = htm::Region::Circle(eq.lon_deg, eq.lat_deg, 8.0);

  std::set<uint64_t> via_query;
  auto stats = store.QueryRegion(region, [&](const PhotoObj& o) {
    via_query.insert(o.obj_id);
  });

  std::set<uint64_t> brute;
  for (const auto& o : objs) {
    if (region.Contains(o.pos)) brute.insert(o.obj_id);
  }
  EXPECT_EQ(via_query, brute);
  EXPECT_EQ(stats.accepted, brute.size());
  EXPECT_GT(stats.full_containers + stats.partial_containers, 0u);
}

TEST(ObjectStoreTest, QueryRegionPrunesContainers) {
  ObjectStore store;
  ASSERT_TRUE(store.BulkLoad(SmallSky()).ok());
  htm::Region tiny = htm::Region::Circle(180.0, 40.0, 0.5);
  auto stats = store.QueryRegion(tiny, [](const PhotoObj&) {});
  // The cover must touch only a tiny fraction of the containers.
  EXPECT_LT(stats.full_containers + stats.partial_containers,
            store.container_count() / 5 + 5);
  EXPECT_LT(stats.bytes_touched, store.Stats().full_bytes);
}

TEST(ObjectStoreTest, PredictionBracketsActual) {
  ObjectStore store;
  auto objs = SmallSky();
  ASSERT_TRUE(store.BulkLoad(objs).ok());
  Vec3 center = EquatorialUnitVector({0.0, 90.0, Frame::kGalactic});
  SphericalCoord eq = ToSpherical(center, Frame::kEquatorial);

  for (double radius : {2.0, 5.0, 10.0, 20.0}) {
    htm::Region region = htm::Region::Circle(eq.lon_deg, eq.lat_deg, radius);
    auto pred = store.PredictRegion(region);
    uint64_t actual = 0;
    for (const auto& o : objs) {
      if (region.Contains(o.pos)) ++actual;
    }
    EXPECT_LE(pred.min_objects, actual) << radius;
    EXPECT_GE(pred.max_objects, actual) << radius;
    EXPECT_GT(pred.bytes_to_scan, 0u) << radius;
  }
}

TEST(ObjectStoreTest, SampleIsApproximatelyFraction) {
  ObjectStore store;
  ASSERT_TRUE(store.BulkLoad(SmallSky(5000, 5000, 100)).ok());
  ObjectStore sample = store.Sample(0.01, 99);
  double frac = static_cast<double>(sample.object_count()) /
                static_cast<double>(store.object_count());
  EXPECT_NEAR(frac, 0.01, 0.005);
  // Deterministic for the same seed.
  ObjectStore sample2 = store.Sample(0.01, 99);
  EXPECT_EQ(sample.object_count(), sample2.object_count());
}

TEST(ObjectStoreTest, SampleObjectsComeFromParent) {
  ObjectStore store;
  auto objs = SmallSky(1000, 0, 0);
  ASSERT_TRUE(store.BulkLoad(objs).ok());
  std::set<uint64_t> parent_ids;
  for (const auto& o : objs) parent_ids.insert(o.obj_id);
  ObjectStore sample = store.Sample(0.1, 5);
  sample.ForEachObject([&](const PhotoObj& o) {
    EXPECT_TRUE(parent_ids.count(o.obj_id) > 0);
  });
}

TEST(ObjectStoreTest, ClusterLevelControlsContainerCount) {
  auto objs = SmallSky(2000, 2000, 0);
  ObjectStore coarse(StoreOptions{.cluster_level = 3, .build_tags = false});
  ObjectStore fine(StoreOptions{.cluster_level = 7, .build_tags = false});
  ASSERT_TRUE(coarse.BulkLoad(objs).ok());
  ASSERT_TRUE(fine.BulkLoad(objs).ok());
  EXPECT_LT(coarse.container_count(), fine.container_count());
  EXPECT_EQ(coarse.object_count(), fine.object_count());
}

TEST(ObjectStoreTest, DensityMapShowsClusteringContrast) {
  // The synthetic sky has galaxy clusters: the densest container should
  // be several times the mean (the [Csabai97] density-contrast premise).
  ObjectStore store;
  ASSERT_TRUE(store.BulkLoad(SmallSky(20000, 0, 0)).ok());
  StoreStats stats = store.Stats();
  EXPECT_GT(static_cast<double>(stats.max_container_objects),
            3.0 * stats.mean_container_objects);
}

TEST(ObjectStoreTest, ClearEmptiesStore) {
  ObjectStore store;
  ASSERT_TRUE(store.BulkLoad(SmallSky(100, 0, 0)).ok());
  store.Clear();
  EXPECT_EQ(store.object_count(), 0u);
  EXPECT_EQ(store.container_count(), 0u);
}

TEST(ObjectStoreTest, FindContainer) {
  ObjectStore store;
  auto objs = SmallSky(100, 0, 0);
  ASSERT_TRUE(store.BulkLoad(objs).ok());
  htm::HtmIndex index(store.cluster_level());
  htm::HtmId id = index.Locate(objs[0].pos);
  const Container* c = store.FindContainer(id);
  ASSERT_NE(c, nullptr);
  bool found = false;
  for (const auto& o : c->columnar.Materialize()) {
    if (o.obj_id == objs[0].obj_id) found = true;
  }
  EXPECT_TRUE(found);
  // A trixel with no objects has no container.
  EXPECT_EQ(store.FindContainer(htm::LookupId(0.0, -89.0,
                                              store.cluster_level())),
            nullptr);
}

TEST(ObjectStoreTest, ExtractContainersCopiesWholesale) {
  ObjectStore store;
  ASSERT_TRUE(store.BulkLoad(SmallSky(2000, 1500, 40)).ok());

  // Every other container id.
  std::vector<uint64_t> ids;
  bool take = true;
  uint64_t expected_objects = 0;
  for (const auto& [raw, c] : store.containers()) {
    if (take) {
      ids.push_back(raw);
      expected_objects += c.size();
    }
    take = !take;
  }

  ObjectStore sub = store.ExtractContainers(ids);
  EXPECT_EQ(sub.container_count(), ids.size());
  EXPECT_EQ(sub.object_count(), expected_objects);
  EXPECT_EQ(sub.cluster_level(), store.cluster_level());
  for (uint64_t raw : ids) {
    const auto& original = store.containers().at(raw);
    const auto& copy = sub.containers().at(raw);
    ASSERT_EQ(copy.size(), original.size());
    EXPECT_EQ(copy.columnar.MaterializeObject(0).obj_id,
              original.columnar.MaterializeObject(0).obj_id);
    EXPECT_EQ(copy.TagBytes(), original.TagBytes());
  }
  EXPECT_EQ(sub.Stats().tag_bytes, expected_objects * sizeof(TagObj));
}

TEST(ObjectStoreTest, ExtractContainersIgnoresUnknownAndDuplicateIds) {
  ObjectStore store;
  ASSERT_TRUE(store.BulkLoad(SmallSky(500, 0, 0)).ok());
  uint64_t raw = store.containers().begin()->first;
  ObjectStore sub = store.ExtractContainers({raw, raw, 0xdeadbeefULL});
  EXPECT_EQ(sub.container_count(), 1u);
  EXPECT_EQ(sub.object_count(),
            store.containers().at(raw).size());
}

TEST(ObjectStoreTest, ExtractContainersPartitionIsLossless) {
  ObjectStore store;
  ASSERT_TRUE(store.BulkLoad(SmallSky(1500, 1000, 30)).ok());

  // Split ids into 3 round-robin parts: extraction must partition the
  // object population exactly.
  std::vector<std::vector<uint64_t>> parts(3);
  size_t i = 0;
  for (const auto& [raw, c] : store.containers()) {
    parts[i++ % 3].push_back(raw);
  }
  uint64_t total = 0;
  for (const auto& part : parts) {
    total += store.ExtractContainers(part).object_count();
  }
  EXPECT_EQ(total, store.object_count());
}

/// Every container's object ids, read through the column views.
std::map<uint64_t, std::vector<uint64_t>> IdsByContainer(
    const ObjectStore& store) {
  std::map<uint64_t, std::vector<uint64_t>> ids;
  for (const auto& [raw, c] : store.containers()) {
    for (size_t i = 0; i < c.size(); ++i) {
      ids[raw].push_back(c.columnar.obj_id[i]);
    }
  }
  return ids;
}

TEST(ObjectStoreTest, CopiesNeverSeeLaterMutationsOfTheirSource) {
  ObjectStore store;
  const auto objs = SmallSky(800, 600, 20);
  ASSERT_TRUE(store.BulkLoad(objs).ok());
  std::vector<uint64_t> all_ids;
  for (const auto& [raw, c] : store.containers()) all_ids.push_back(raw);

  // Copies taken before the mutations, one with its row cache filled.
  ObjectStore extracted = store.ExtractContainers(all_ids);
  ObjectStore sampled = store.Sample(0.5, 3);
  ObjectStore whole = store;
  extracted.ForEachObject([](const PhotoObj&) {});
  const auto extracted_ids = IdsByContainer(extracted);
  const auto sampled_ids = IdsByContainer(sampled);
  const auto whole_ids = IdsByContainer(whole);

  // Mutate every source container: inserts and a bulk load land in the
  // trixels the copies share.
  std::vector<PhotoObj> more(objs.begin(), objs.begin() + 300);
  for (PhotoObj& o : more) o.obj_id += 1'000'000;
  for (size_t i = 0; i < 100; ++i) ASSERT_TRUE(store.Insert(more[i]).ok());
  ASSERT_TRUE(
      store.BulkLoad(std::vector<PhotoObj>(more.begin() + 100, more.end()))
          .ok());
  EXPECT_EQ(store.object_count(), objs.size() + more.size());
  std::vector<uint64_t> source_all, expected_all;
  for (const auto& [raw, ids] : IdsByContainer(store)) {
    source_all.insert(source_all.end(), ids.begin(), ids.end());
  }
  for (const PhotoObj& o : objs) expected_all.push_back(o.obj_id);
  for (const PhotoObj& o : more) expected_all.push_back(o.obj_id);
  std::sort(source_all.begin(), source_all.end());
  std::sort(expected_all.begin(), expected_all.end());
  EXPECT_EQ(source_all, expected_all);

  EXPECT_EQ(IdsByContainer(extracted), extracted_ids);
  EXPECT_EQ(IdsByContainer(sampled), sampled_ids);
  EXPECT_EQ(IdsByContainer(whole), whole_ids);
  EXPECT_EQ(extracted.object_count(), objs.size());
  uint64_t rows = 0;
  extracted.ForEachObject([&rows](const PhotoObj& o) {
    EXPECT_LT(o.obj_id, 1'000'000u);
    ++rows;
  });
  EXPECT_EQ(rows, objs.size());

  // And the other way round: mutating a copy leaves the source alone.
  const auto source_ids = IdsByContainer(store);
  ASSERT_TRUE(whole.BulkLoad(more).ok());
  EXPECT_EQ(IdsByContainer(store), source_ids);
}

TEST(ObjectStoreTest, GrowingOwnedColumnsKeepEveryField) {
  // One bulk load vs the same objects arriving in three steps (bulk,
  // single inserts, bulk): every container grows and moves its columns,
  // and must still hold every field of every object, in input order.
  const auto objs = SmallSky(600, 400, 20);
  ObjectStore once, grown;
  ASSERT_TRUE(once.BulkLoad(objs).ok());
  const size_t half = objs.size() / 2;
  ASSERT_TRUE(grown
                  .BulkLoad(std::vector<PhotoObj>(objs.begin(),
                                                  objs.begin() + half))
                  .ok());
  for (size_t i = half; i < half + 50; ++i) {
    ASSERT_TRUE(grown.Insert(objs[i]).ok());
  }
  ASSERT_TRUE(grown
                  .BulkLoad(std::vector<PhotoObj>(objs.begin() + half + 50,
                                                  objs.end()))
                  .ok());
  std::vector<PhotoObj> a, b;
  once.ForEachObject([&a](const PhotoObj& o) { a.push_back(o); });
  grown.ForEachObject([&b](const PhotoObj& o) { b.push_back(o); });
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].obj_id, b[i].obj_id) << "row " << i;
    EXPECT_EQ(a[i].pos.x, b[i].pos.x);
    EXPECT_EQ(a[i].pos.y, b[i].pos.y);
    EXPECT_EQ(a[i].pos.z, b[i].pos.z);
    EXPECT_EQ(a[i].ra_deg, b[i].ra_deg);
    EXPECT_EQ(a[i].dec_deg, b[i].dec_deg);
    EXPECT_EQ(a[i].mag, b[i].mag);
    EXPECT_EQ(a[i].mag_err, b[i].mag_err);
    EXPECT_EQ(a[i].profile, b[i].profile);
    EXPECT_EQ(a[i].petro_radius_arcsec, b[i].petro_radius_arcsec);
    EXPECT_EQ(a[i].surface_brightness, b[i].surface_brightness);
    EXPECT_EQ(a[i].redshift, b[i].redshift);
    EXPECT_EQ(a[i].flags, b[i].flags);
    EXPECT_EQ(a[i].obj_class, b[i].obj_class);
    EXPECT_EQ(a[i].htm_leaf, b[i].htm_leaf);
  }
}

TEST(ObjectStoreTest, RowsAfterInsertIncludeTheInsert) {
  ObjectStore store;
  const auto objs = SmallSky(300, 0, 0);
  ASSERT_TRUE(store.BulkLoad(objs).ok());
  htm::HtmIndex index(store.cluster_level());
  const htm::HtmId trixel = index.Locate(objs[0].pos);
  const Container* c = store.FindContainer(trixel);
  ASSERT_NE(c, nullptr);
  const size_t before = c->size();

  PhotoObj extra = objs[0];
  extra.obj_id = 424242;
  ASSERT_TRUE(store.Insert(extra).ok());
  c = store.FindContainer(trixel);
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->size(), before + 1);
  const std::vector<PhotoObj> rows = c->columnar.Materialize();
  ASSERT_EQ(rows.size(), before + 1);
  EXPECT_EQ(rows.back().obj_id, 424242u);
  EXPECT_EQ(c->columnar.obj_id[before], 424242u);
  EXPECT_EQ(rows.back().pos.x, extra.pos.x);
}

}  // namespace
}  // namespace sdss::catalog
