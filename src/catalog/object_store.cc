#include "catalog/object_store.h"

#include <algorithm>

#include "core/random.h"

namespace sdss::catalog {

using htm::HtmId;
using htm::Region;

template <typename At>
Status Container::Append(size_t m, const At& at) {
  if (mapping_ != nullptr) {
    return Status::FailedPrecondition(
        "container " + std::to_string(trixel.raw()) +
        " is a mapped snapshot view and immutable");
  }
  if (owned_ == nullptr) {
    owned_ = std::make_shared<ColumnStore>();
  } else if (owned_.use_count() > 1) {
    // Copy on write: a container copy shares these columns.
    owned_ = std::make_shared<ColumnStore>(*owned_);
  }
  owned_->Append(m, at);
  columnar = owned_->View();
  return Status::OK();
}

ObjectStore::ObjectStore(StoreOptions options)
    : options_(options), index_(options.cluster_level) {}

Status ObjectStore::Insert(const PhotoObj& obj) {
  // Bumped before the outcome is known: over-invalidating cached
  // results on a failed insert is harmless, serving stale ones is not.
  BumpEpoch();
  HtmId trixel = index_.Locate(obj.pos);
  Container& c = containers_[trixel.raw()];
  if (!c.trixel.valid()) c.trixel = trixel;
  SDSS_RETURN_IF_ERROR(
      c.Append(1, [&obj](size_t) -> const PhotoObj& { return obj; }));
  ++object_count_;
  return Status::OK();
}

Status ObjectStore::BulkLoad(std::vector<PhotoObj> objects) {
  BumpEpoch();  // Before the outcome: a partial load still mutated.
  // Phase 1: compute container keys and sort so each container is touched
  // exactly once.
  std::vector<std::pair<uint64_t, size_t>> keys;
  keys.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    keys.emplace_back(index_.Locate(objects[i].pos).raw(), i);
  }
  std::sort(keys.begin(), keys.end());

  // Phase 2: one pass, one container at a time.
  size_t i = 0;
  while (i < keys.size()) {
    uint64_t raw = keys[i].first;
    size_t j = i;
    while (j < keys.size() && keys[j].first == raw) ++j;
    Container& c = containers_[raw];
    if (!c.trixel.valid()) {
      auto id = HtmId::FromRaw(raw);
      if (!id.ok()) return id.status();
      c.trixel = *id;
    }
    SDSS_RETURN_IF_ERROR(
        c.Append(j - i, [&](size_t k) -> const PhotoObj& {
          return objects[keys[i + k].second];
        }));
    object_count_ += j - i;
    i = j;
  }
  return Status::OK();
}

StoreStats ObjectStore::Stats() const {
  StoreStats s;
  s.object_count = object_count_;
  s.container_count = containers_.size();
  for (const auto& [raw, c] : containers_) {
    s.full_bytes += c.FullBytes();
    if (options_.build_tags) s.tag_bytes += c.TagBytes();
    s.max_container_objects =
        std::max<uint64_t>(s.max_container_objects, c.size());
  }
  s.mean_container_objects =
      containers_.empty()
          ? 0.0
          : static_cast<double>(object_count_) /
                static_cast<double>(containers_.size());
  return s;
}

const Container* ObjectStore::FindContainer(HtmId trixel) const {
  auto it = containers_.find(trixel.raw());
  return it == containers_.end() ? nullptr : &it->second;
}

std::map<uint64_t, uint64_t> ObjectStore::DensityMap() const {
  std::map<uint64_t, uint64_t> dm;
  for (const auto& [raw, c] : containers_) dm[raw] = c.size();
  return dm;
}

void ObjectStore::ForEachObject(
    const std::function<void(const PhotoObj&)>& fn) const {
  for (const auto& [raw, c] : containers_) {
    for (size_t i = 0; i < c.size(); ++i) {
      fn(c.columnar.MaterializeObject(i));
    }
  }
}

void ObjectStore::ForEachTag(
    const std::function<void(const TagObj&)>& fn) const {
  if (!options_.build_tags) return;
  for (const auto& [raw, c] : containers_) {
    for (size_t i = 0; i < c.size(); ++i) {
      fn(TagObj::FromPhoto(c.columnar.MaterializeObject(i)));
    }
  }
}

ObjectStore::SpatialScanStats ObjectStore::QueryRegion(
    const Region& region,
    const std::function<void(const PhotoObj&)>& fn) const {
  SpatialScanStats stats;
  htm::ForEachInCover(
      index_.CoverRegion(region), options_.cluster_level, containers_,
      [&](const auto& entry, bool full) {
        const ColumnarBlock& b = entry.second.columnar;
        ++(full ? stats.full_containers : stats.partial_containers);
        stats.bytes_touched += entry.second.FullBytes();
        for (size_t i = 0; i < b.n; ++i) {
          if (!full) {
            ++stats.objects_tested;
            if (!region.Contains(b.Position(i))) continue;
          }
          ++stats.accepted;
          fn(b.MaterializeObject(i));
        }
      });
  return stats;
}

ObjectStore::Prediction ObjectStore::PredictRegion(
    const Region& region) const {
  Prediction p;
  htm::ForEachInCover(
      index_.CoverRegion(region), options_.cluster_level, containers_,
      [&p](const auto& entry, bool full) { p.Add(entry.second, full); });
  return p;
}

ObjectStore ObjectStore::Sample(double fraction, uint64_t seed) const {
  ObjectStore out(options_);
  Rng rng(seed);
  std::vector<PhotoObj> picked;
  ForEachObject([&](const PhotoObj& o) {
    if (rng.Bernoulli(fraction)) picked.push_back(o);
  });
  // BulkLoad only fails on malformed trixel ids, which cannot happen for
  // ids produced by Locate().
  (void)out.BulkLoad(std::move(picked));
  return out;
}

ObjectStore ObjectStore::ExtractContainers(
    const std::vector<uint64_t>& ids) const {
  ObjectStore out(options_);
  for (uint64_t raw : ids) {
    auto it = containers_.find(raw);
    if (it == containers_.end()) continue;
    if (out.containers_.emplace(raw, it->second).second) {
      out.object_count_ += it->second.size();
    }
  }
  return out;
}

Status ObjectStore::AdoptContainer(htm::HtmId trixel,
                                   const ColumnarBlock& block,
                                   std::shared_ptr<const void> backing) {
  if (!trixel.valid() || trixel.level() != options_.cluster_level) {
    return Status::InvalidArgument(
        "adopted container trixel is not at the store's cluster level");
  }
  if (containers_.count(trixel.raw()) > 0) {
    return Status::AlreadyExists("container " +
                                 std::to_string(trixel.raw()) +
                                 " already present");
  }
  Container& c = containers_[trixel.raw()];
  c.trixel = trixel;
  if (backing != nullptr) {
    c.columnar = block;
    c.mapping_ = std::move(backing);
  } else {
    c.owned_ = std::make_shared<ColumnStore>();
    c.owned_->Append(block);
    c.columnar = c.owned_->View();
  }
  object_count_ += block.n;
  return Status::OK();
}

void ObjectStore::Clear() {
  BumpEpoch();
  containers_.clear();
  object_count_ = 0;
}

}  // namespace sdss::catalog
