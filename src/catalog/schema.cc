#include "catalog/schema.h"

#include "catalog/photo_obj.h"

namespace sdss::catalog {

const char* FieldTypeName(FieldType t) {
  switch (t) {
    case FieldType::kInt64:
      return "int64";
    case FieldType::kInt32:
      return "int32";
    case FieldType::kFloat:
      return "float32";
    case FieldType::kDouble:
      return "float64";
    case FieldType::kString:
      return "string";
    case FieldType::kEnum:
      return "enum";
  }
  return "?";
}

namespace {

size_t FieldBytes(const FieldDef& f) {
  size_t unit = 8;
  switch (f.type) {
    case FieldType::kInt64:
    case FieldType::kDouble:
      unit = 8;
      break;
    case FieldType::kInt32:
    case FieldType::kFloat:
      unit = 4;
      break;
    case FieldType::kString:
      unit = 16;
      break;
    case FieldType::kEnum:
      unit = 1;
      break;
  }
  return unit * (f.array_length == 0 ? 1 : f.array_length);
}

const char* SqlType(FieldType t) {
  switch (t) {
    case FieldType::kInt64:
      return "BIGINT";
    case FieldType::kInt32:
      return "INTEGER";
    case FieldType::kFloat:
      return "REAL";
    case FieldType::kDouble:
      return "DOUBLE PRECISION";
    case FieldType::kString:
      return "VARCHAR(64)";
    case FieldType::kEnum:
      return "SMALLINT";
  }
  return "?";
}

const char* OoType(FieldType t) {
  switch (t) {
    case FieldType::kInt64:
      return "ooInt64";
    case FieldType::kInt32:
      return "ooInt32";
    case FieldType::kFloat:
      return "ooFloat";
    case FieldType::kDouble:
      return "ooDouble";
    case FieldType::kString:
      return "ooVString";
    case FieldType::kEnum:
      return "ooInt8";
  }
  return "?";
}

}  // namespace

size_t ClassDef::BytesPerInstance() const {
  size_t n = 0;
  for (const FieldDef& f : fields) n += FieldBytes(f);
  return n;
}

Result<ClassDef> Schema::FindClass(const std::string& name) const {
  for (const ClassDef& c : classes_) {
    if (c.name == name) return c;
  }
  return Status::NotFound("no schema class named " + name);
}

std::string Schema::ToSqlDdl() const {
  std::string out;
  for (const ClassDef& c : classes_) {
    out += "-- " + c.doc + "\n";
    out += "CREATE TABLE " + c.name + " (\n";
    for (size_t i = 0; i < c.fields.size(); ++i) {
      const FieldDef& f = c.fields[i];
      if (f.array_length == 0) {
        out += "  " + f.name + " " + SqlType(f.type);
        if (i + 1 < c.fields.size()) out += ",";
        if (!f.unit.empty()) out += "  -- [" + f.unit + "] " + f.doc;
        out += "\n";
      } else {
        // Arrays unroll into numbered columns in the SQL representation.
        for (size_t k = 0; k < f.array_length; ++k) {
          out += "  " + f.name + "_" + std::to_string(k) + " " +
                 SqlType(f.type);
          if (i + 1 < c.fields.size() || k + 1 < f.array_length) out += ",";
          out += "\n";
        }
      }
    }
    out += ");\n\n";
  }
  return out;
}

std::string Schema::ToObjectivityDdl() const {
  std::string out;
  for (const ClassDef& c : classes_) {
    out += "// " + c.doc + "\n";
    out += "class " + c.name + " : public ooObj {\n";
    for (const FieldDef& f : c.fields) {
      out += "  ";
      out += OoType(f.type);
      out += " " + f.name;
      if (f.array_length > 0) {
        out += "[";
        out += std::to_string(f.array_length);
        out += "]";
      }
      out += ";";
      if (!f.doc.empty()) out += "  // " + f.doc;
      out += "\n";
    }
    out += "};\n\n";
  }
  return out;
}

std::string Schema::ToXml() const {
  std::string out = "<schema name=\"sdss\">\n";
  for (const ClassDef& c : classes_) {
    out += "  <class name=\"" + c.name + "\" doc=\"" + c.doc + "\">\n";
    for (const FieldDef& f : c.fields) {
      out += "    <field name=\"" + f.name + "\" type=\"" +
             FieldTypeName(f.type) + "\"";
      if (f.array_length > 0) {
        out += " length=\"" + std::to_string(f.array_length) + "\"";
      }
      if (!f.unit.empty()) out += " unit=\"" + f.unit + "\"";
      out += "/>\n";
    }
    out += "  </class>\n";
  }
  out += "</schema>\n";
  return out;
}

Schema Schema::Sdss() {
  Schema s;
  s.AddClass(ClassDef{
      "PhotoObj",
      "Full photometric catalog object",
      {
          {"obj_id", FieldType::kInt64, 0, "", "unique object id"},
          {"cx", FieldType::kDouble, 0, "", "unit vector x"},
          {"cy", FieldType::kDouble, 0, "", "unit vector y"},
          {"cz", FieldType::kDouble, 0, "", "unit vector z"},
          {"ra", FieldType::kDouble, 0, "deg", "right ascension J2000"},
          {"dec", FieldType::kDouble, 0, "deg", "declination J2000"},
          {"mag", FieldType::kFloat, kNumBands, "mag", "ugriz magnitudes"},
          {"mag_err", FieldType::kFloat, kNumBands, "mag", "1-sigma errors"},
          {"profile", FieldType::kFloat, kProfileBins, "",
           "r-band radial profile"},
          {"petro_radius", FieldType::kFloat, 0, "arcsec",
           "Petrosian radius"},
          {"sb", FieldType::kFloat, 0, "mag/arcsec2", "surface brightness"},
          {"redshift", FieldType::kFloat, 0, "", "spectroscopic redshift"},
          {"flags", FieldType::kInt32, 0, "", "processing flags"},
          {"class", FieldType::kEnum, 0, "", "star/galaxy/qso"},
          {"htm", FieldType::kInt64, 0, "", "HTM leaf id"},
      }});
  s.AddClass(ClassDef{
      "TagObj",
      "Vertical partition of the ten most popular attributes",
      {
          {"obj_id", FieldType::kInt64, 0, "", "pointer to PhotoObj"},
          {"cx", FieldType::kFloat, 0, "", "unit vector x"},
          {"cy", FieldType::kFloat, 0, "", "unit vector y"},
          {"cz", FieldType::kFloat, 0, "", "unit vector z"},
          {"mag", FieldType::kFloat, kNumBands, "mag", "ugriz magnitudes"},
          {"size", FieldType::kFloat, 0, "arcsec", "Petrosian radius"},
          {"class", FieldType::kEnum, 0, "", "star/galaxy/qso"},
      }});
  s.AddClass(ClassDef{
      "SpecObj",
      "Spectroscopic catalog object",
      {
          {"spec_id", FieldType::kInt64, 0, "", "unique spectrum id"},
          {"photo_obj_id", FieldType::kInt64, 0, "",
           "cross-link to PhotoObj"},
          {"redshift", FieldType::kFloat, 0, "", "heliocentric redshift"},
          {"redshift_err", FieldType::kFloat, 0, "", "redshift error"},
          {"spec_class", FieldType::kEnum, 0, "", "classification"},
          {"lines", FieldType::kFloat, 4, "Angstrom",
           "identified line wavelengths"},
      }});
  s.AddClass(ClassDef{
      "Chunk",
      "One night's calibrated export from the Operational Archive",
      {
          {"night", FieldType::kInt32, 0, "", "observing night index"},
          {"ra_min", FieldType::kDouble, 0, "deg", "stripe lower bound"},
          {"ra_max", FieldType::kDouble, 0, "deg", "stripe upper bound"},
          {"object_count", FieldType::kInt64, 0, "", "objects in chunk"},
      }});
  return s;
}

}  // namespace sdss::catalog
