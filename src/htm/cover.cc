#include "htm/cover.h"

#include <utility>

namespace sdss::htm {

RangeSet CoverResult::ToRangeSet() const {
  RangeSet rs = FullRangeSet();
  return rs.UnionWith(PartialRangeSet());
}

RangeSet CoverResult::FullRangeSet() const {
  RangeSet rs;
  for (HtmId id : full) rs.AddTrixel(id, level);
  return rs;
}

RangeSet CoverResult::PartialRangeSet() const {
  RangeSet rs;
  for (HtmId id : partial) rs.AddTrixel(id, level);
  return rs;
}

double CoverResult::FullAreaSquareDegrees() const {
  double a = 0.0;
  for (HtmId id : full) a += Trixel::FromId(id).AreaSquareDegrees();
  return a;
}

double CoverResult::PartialAreaSquareDegrees() const {
  double a = 0.0;
  for (HtmId id : partial) a += Trixel::FromId(id).AreaSquareDegrees();
  return a;
}

CoverResult Cover(const Region& region, const CoverOptions& options) {
  CoverResult out;
  out.level = options.level;
  out.level_stats.resize(static_cast<size_t>(options.level) + 1);

  std::vector<Trixel> frontier;  // PARTIAL trixels at the current level.
  frontier.reserve(64);

  auto classify_into = [&](const Trixel& t, int lv,
                           std::vector<Trixel>* next) {
    auto& stats = out.level_stats[static_cast<size_t>(lv)];
    ++stats.tested;
    switch (region.Classify(t)) {
      case Coverage::kFull:
        ++stats.full;
        out.full.push_back(t.id());
        break;
      case Coverage::kPartial:
        ++stats.partial;
        if (lv == options.level) {
          out.partial.push_back(t.id());
        } else {
          next->push_back(t);
        }
        break;
      case Coverage::kDisjoint:
        ++stats.disjoint;
        break;
    }
  };

  int top = 0;
  if (options.root.valid()) {
    top = options.root.level();
    classify_into(Trixel::FromId(options.root), top, &frontier);
  } else {
    for (int i = 0; i < 8; ++i) {
      Trixel t = Trixel::FromId(HtmId::Base(i));
      classify_into(t, 0, &frontier);
    }
  }

  for (int lv = top + 1; lv <= options.level && !frontier.empty(); ++lv) {
    if (options.max_trixels > 0 &&
        out.full.size() + out.partial.size() + frontier.size() * 4 >
            options.max_trixels) {
      break;  // Budget exhausted: emit the frontier coarse.
    }
    std::vector<Trixel> next;
    next.reserve(frontier.size() * 2);
    for (const Trixel& t : frontier) {
      for (const Trixel& child : t.Children()) {
        classify_into(child, lv, &next);
      }
    }
    frontier = std::move(next);
  }

  // Anything still in the frontier (budget cut-off) is PARTIAL, possibly
  // coarser than the leaf level; RangeAtLevel expansion handles that.
  for (const Trixel& t : frontier) out.partial.push_back(t.id());

  return out;
}

CoverResult Cover(const Region& region, int level) {
  CoverOptions opt;
  opt.level = level;
  return Cover(region, opt);
}

}  // namespace sdss::htm
