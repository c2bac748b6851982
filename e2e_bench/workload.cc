#include "workload.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <utility>

namespace e2e {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kDeg = kPi / 180.0;

// The footprint is the galactic cap b >= 30 deg; cone centres stay a
// little inside it so most of every cone holds survey objects.
constexpr double kMinCentreLat = 33.0;

constexpr int kConnections = 4;

// Offered rates, statements per second over all open-loop connections.
constexpr double kInteractiveRate = 100.0;
constexpr double kHotspotRate = 200.0;
constexpr double kMiningQuickRate = 100.0;
constexpr double kMyDbRate = 50.0;

// Hotspot: popular fields, the radius of each field's cached select,
// and the sub-cones drawn inside it.
constexpr int kHotFields = 12;
constexpr double kFieldRadius = 1.0;
constexpr double kSubConeRadius = 0.3;
// The cache proves containment on level-8 HTM trixels (about 0.4 deg),
// so a sub-cone stays that far inside its field's cone.
constexpr double kSubConeMaxOffset = 0.2;

/// A small deterministic generator. Self-contained so that the inputs
/// depend on the seed alone, not on a standard library's distributions.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t salt) : s_(Mix64(seed ^ Mix64(salt))) {}
  uint64_t Next() { return s_ = Mix64(s_); }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  double Exponential(double rate) { return -std::log1p(-Uniform()) / rate; }
  size_t Below(size_t n) { return static_cast<size_t>(Uniform() * n); }

 private:
  uint64_t s_;
};

/// Uniform over the band min_lat <= b < max_lat of the cap.
Cone RandomCentre(Rng* rng, double radius, double max_lat = 88.0,
                  double min_lat = kMinCentreLat) {
  const double lo = std::sin(min_lat * kDeg);
  const double hi = std::sin(max_lat * kDeg);
  Cone c;
  c.l = rng->Uniform(0.0, 360.0);
  c.b = std::asin(rng->Uniform(lo, hi)) / kDeg;
  c.radius = radius;
  return c;
}

/// The point `dist` degrees from `c` along bearing `bearing` (radians).
Cone Offset(const Cone& c, double dist, double bearing, double radius) {
  const double b = c.b * kDeg, d = dist * kDeg;
  const double b2 =
      std::asin(std::sin(b) * std::cos(d) +
                std::cos(b) * std::sin(d) * std::cos(bearing));
  const double dl = std::atan2(std::sin(bearing) * std::sin(d) * std::cos(b),
                               std::cos(d) - std::sin(b) * std::sin(b2));
  Cone out;
  out.l = std::fmod(c.l + dl / kDeg + 360.0, 360.0);
  out.b = b2 / kDeg;
  out.radius = radius;
  return out;
}

__attribute__((format(printf, 1, 2))) std::string Fmt(const char* format,
                                                       ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

std::string Circle(const Cone& c) {
  return Fmt("CIRCLE('GAL', %.6f, %.6f, %g)", c.l, c.b, c.radius);
}

std::string IntoSql(const std::string& table, const Cone& cone) {
  return Fmt("SELECT * INTO mydb.%s FROM photo WHERE %s", table.c_str(),
             Circle(cone).c_str());
}

Statement Read(const char* kind, Compare compare, const Cone& cone,
               std::string sql) {
  Statement s;
  s.kind = kind;
  s.compare = compare;
  s.cone = cone;
  s.oracle_sql = sql;
  s.sql = std::move(sql);
  return s;
}

/// The SkyServer quick mix: five interactive shapes around one centre.
/// `variant` picks the shape; `cut` in [0, 1) sets its colour cuts.
Statement QuickStatement(int variant, Cone centre, double cut) {
  switch (variant) {
    case 0: {  // Finding chart with colour cuts.
      centre.radius = 1.0;
      return Read("finding_chart", Compare::kBag, centre,
                  Fmt("SELECT obj_id, ra, dec, u, g, r, i, z FROM photo "
                      "WHERE %s AND r < %.3f AND g - r < %.3f",
                      Circle(centre).c_str(), 21.0 + 2.0 * cut,
                      1.0 + cut));
    }
    case 1:  // Cone count.
      centre.radius = 1.0;
      return Read("cone_count", Compare::kBag, centre,
                  Fmt("SELECT COUNT(*) FROM photo WHERE %s",
                      Circle(centre).c_str()));
    case 2:  // Tag-partition cone select.
      centre.radius = 1.0;
      return Read("tag_cone", Compare::kBag, centre,
                  Fmt("SELECT obj_id, u, g, r, i, z FROM tag WHERE %s AND "
                      "r < %.3f",
                      Circle(centre).c_str(), 21.0 + 2.0 * cut));
    case 3:  // Brightest objects of a cone.
      centre.radius = 1.0;
      return Read("cone_top", Compare::kOrdered, centre,
                  Fmt("SELECT obj_id, r FROM photo WHERE %s ORDER BY r "
                      "LIMIT 20",
                      Circle(centre).c_str()));
    default:  // Quasars of a cone.
      centre.radius = 2.0;
      return Read("qso_cone", Compare::kBag, centre,
                  Fmt("SELECT obj_id, redshift FROM photo WHERE %s AND "
                      "class = 'QSO'",
                      Circle(centre).c_str()));
  }
}

/// Open-loop Poisson arrival times of one connection over [0, horizon).
std::vector<double> Arrivals(Rng* rng, double rate, double horizon) {
  std::vector<double> due;
  for (double t = rng->Exponential(rate); t < horizon;
       t += rng->Exponential(rate)) {
    due.push_back(t);
  }
  return due;
}

std::string User(int conn) { return Fmt("user%d", conn); }

void AddInteractive(Schedule* s, int first_conn, int conns, double rate,
                    double horizon) {
  for (int c = first_conn; c < first_conn + conns; ++c) {
    Rng rng(s->seed, 100 + c);
    ConnectionPlan plan;
    plan.user = User(c);
    for (double due : Arrivals(&rng, rate / conns, horizon)) {
      const int variant = static_cast<int>(rng.Below(5));
      const Cone centre = RandomCentre(&rng, 0.0);
      Statement st = QuickStatement(variant, centre, rng.Uniform());
      st.due_s = due;
      plan.statements.push_back(std::move(st));
    }
    s->connections.push_back(std::move(plan));
  }
}

void AddHotspot(Schedule* s, double horizon) {
  Rng fields_rng(s->seed, 1);
  struct Field {
    Cone centre;
    std::vector<Statement> canonical;
  };
  std::vector<Field> fields(kHotFields);
  for (Field& f : fields) {
    f.centre = RandomCentre(&fields_rng, kFieldRadius, 80.0, 40.0);
    const double cut = fields_rng.Uniform();
    for (int v = 0; v < 5; ++v) {
      f.canonical.push_back(QuickStatement(v, f.centre, cut));
    }
    f.canonical.push_back(
        Read("field_select", Compare::kBag, f.centre,
             Fmt("SELECT obj_id, r FROM photo WHERE %s",
                 Circle(f.centre).c_str())));
  }
  // Zipf(1) popularity over the fields.
  std::vector<double> cdf;
  double total = 0.0;
  for (int k = 0; k < kHotFields; ++k) cdf.push_back(total += 1.0 / (k + 1));

  for (int c = 0; c < kConnections; ++c) {
    Rng rng(s->seed, 200 + c);
    ConnectionPlan plan;
    plan.user = User(c);
    for (double due : Arrivals(&rng, kHotspotRate / kConnections, horizon)) {
      const double z = rng.Uniform() * total;
      size_t k = 0;
      while (k + 1 < cdf.size() && cdf[k] <= z) ++k;
      const Field& f = fields[k];
      Statement st;
      if (rng.Uniform() < 0.5) {
        st = f.canonical[rng.Below(f.canonical.size())];
      } else {
        // A sub-cone that lies inside the field's cached select, with a
        // fresh magnitude cut: served by cover containment.
        const double offset = rng.Uniform(0.0, kSubConeMaxOffset);
        const double bearing = rng.Uniform(0.0, 2.0 * kPi);
        const Cone sub = Offset(f.centre, offset, bearing, kSubConeRadius);
        st = Read("sub_cone", Compare::kBag, sub,
                  Fmt("SELECT obj_id, r FROM photo WHERE %s AND r < %.3f",
                      Circle(sub).c_str(), rng.Uniform(19.0, 23.0)));
      }
      st.due_s = due;
      plan.statements.push_back(std::move(st));
    }
    s->connections.push_back(std::move(plan));
  }
}

void AddMyDb(Schedule* s, double horizon) {
  for (int c = 0; c < kConnections; ++c) {
    Rng rng(s->seed, 300 + c);
    ConnectionPlan plan;
    plan.user = User(c);
    int n = 0;
    for (double due : Arrivals(&rng, kMyDbRate / kConnections, horizon)) {
      const Cone cone = RandomCentre(&rng, 1.0);
      const std::string table = Fmt("t%d", n++);
      Statement into =
          Read("into", Compare::kIntoCount, cone, IntoSql(table, cone));
      into.cls = Class::kInto;
      into.oracle_sql =
          Fmt("SELECT * FROM photo WHERE %s", Circle(cone).c_str());
      into.due_s = due;
      const double cut = rng.Uniform(19.0, 23.0);
      Statement reread =
          Read("reread", Compare::kBag, cone,
               Fmt("SELECT obj_id, r FROM mydb.%s WHERE r < %.3f",
                   table.c_str(), cut));
      reread.cls = Class::kReread;
      reread.oracle_sql =
          Fmt("SELECT obj_id, r FROM photo WHERE %s AND r < %.3f",
              Circle(cone).c_str(), cut);
      plan.statements.push_back(std::move(into));
      plan.statements.push_back(std::move(reread));
    }
    s->connections.push_back(std::move(plan));
  }
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kInteractive, Workload::kHotspot,
                     Workload::kMining, Workload::kMyDb}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kInteractive: return "interactive";
    case Workload::kHotspot: return "hotspot";
    case Workload::kMining: return "mining";
    case Workload::kMyDb: return "mydb";
  }
  return "?";
}

const char* ClassName(Class c) {
  switch (c) {
    case Class::kQuick: return "quick";
    case Class::kSweep: return "sweep";
    case Class::kInto: return "into";
    case Class::kReread: return "reread";
  }
  return "?";
}

Schedule MakeSchedule(Workload workload, uint64_t seed, double horizon_s) {
  Schedule s;
  s.seed = seed;
  switch (workload) {
    case Workload::kInteractive:
      AddInteractive(&s, 0, kConnections, kInteractiveRate, horizon_s);
      break;
    case Workload::kHotspot:
      AddHotspot(&s, horizon_s);
      break;
    case Workload::kMining: {
      ConnectionPlan sweeper;
      sweeper.user = User(0);
      sweeper.closed_loop = true;
      s.connections.push_back(std::move(sweeper));
      AddInteractive(&s, 1, kConnections - 1, kMiningQuickRate, horizon_s);
      break;
    }
    case Workload::kMyDb:
      AddMyDb(&s, horizon_s);
      break;
  }
  return s;
}

Statement SweepStatement(uint64_t seed, uint64_t i) {
  Rng rng(seed, 1000 + i);
  Statement st;
  st.cls = Class::kSweep;
  switch (i % 4) {
    case 0: {
      const double colour = rng.Uniform(0.2, 1.0);
      const double faint = rng.Uniform(19.0, 22.0);
      st.kind = "sweep_count";
      st.sql = Fmt("SELECT COUNT(*) FROM photo WHERE g - r > %.4f AND "
                   "r < %.4f",
                   colour, faint);
      break;
    }
    case 1:
      st.kind = "sweep_avg";
      st.compare = Compare::kAvg;
      st.sql = Fmt("SELECT AVG(r) FROM photo WHERE u - g < %.4f AND "
                   "class = 'GALAXY'",
                   rng.Uniform(1.0, 2.5));
      break;
    case 2:
      // The paper's quasar-galaxy neighbour search. On the synthetic sky
      // quasars are not placed near galaxies, so it mostly finds none.
      st.kind = "sweep_join";
      st.compare = Compare::kPairs;
      st.cone = RandomCentre(&rng, 8.0, 75.0);
      st.sql = Fmt("SELECT a.obj_id, b.obj_id, sep FROM photo AS a JOIN "
                   "photoobj AS b WITHIN 5 ARCSEC WHERE %s AND "
                   "a.class = 'QSO' AND b.class = 'GALAXY' AND b.r > %.4f",
                   Circle(st.cone).c_str(), rng.Uniform(17.0, 20.0));
      break;
    default:
      // Close galaxy pairs, which the clusters do yield.
      st.kind = "sweep_pairs";
      st.compare = Compare::kPairs;
      st.cone = RandomCentre(&rng, 8.0, 75.0);
      st.sql = Fmt("SELECT a.obj_id, b.obj_id, sep FROM photo AS a JOIN "
                   "photoobj AS b WITHIN 5 ARCSEC WHERE %s AND "
                   "a.class = 'GALAXY' AND b.class = 'GALAXY' AND "
                   "a.r < %.4f",
                   Circle(st.cone).c_str(), rng.Uniform(21.0, 23.0));
      break;
  }
  st.oracle_sql = st.sql;
  return st;
}

Statement IntoTable(const Statement& into, const std::string& table) {
  Statement out = into;
  out.sql = IntoSql(table, into.cone);
  return out;
}

}  // namespace e2e
