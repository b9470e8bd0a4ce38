#include "bench/bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "common/rng.h"
#include "common/str_util.h"
#include "obs/metrics.h"

namespace orpheus::bench {

wl::DatasetSpec SmallSpec(wl::WorkloadKind kind) {
  wl::DatasetSpec spec;
  spec.kind = kind;
  spec.num_versions = 150;
  spec.num_branches = 15;
  spec.inserts_per_version = 60;
  spec.num_attrs = 20;
  return spec;
}

wl::DatasetSpec MediumSpec(wl::WorkloadKind kind) {
  wl::DatasetSpec spec;
  spec.kind = kind;
  spec.num_versions = 250;
  spec.num_branches = 25;
  spec.inserts_per_version = 100;
  spec.num_attrs = 20;
  return spec;
}

wl::DatasetSpec LargeSpec(wl::WorkloadKind kind) {
  wl::DatasetSpec spec;
  spec.kind = kind;
  spec.num_versions = 400;
  spec.num_branches = 40;
  spec.inserts_per_version = 150;
  spec.num_attrs = 20;
  return spec;
}

wl::DatasetSpec Scaled(wl::DatasetSpec spec, double scale) {
  if (scale <= 0) scale = 1.0;
  spec.num_versions = std::max(10, static_cast<int>(spec.num_versions * scale));
  spec.inserts_per_version =
      std::max(5, static_cast<int>(spec.inserts_per_version * scale));
  spec.num_branches = std::max(2, static_cast<int>(spec.num_branches * scale));
  return spec;
}

Status PopulateModel(core::DataModel* model, const wl::Dataset& data) {
  ORPHEUS_RETURN_NOT_OK(model->Init());
  core::RecordId watermark = 0;  // rids are allocated in creation order
  for (const wl::VersionSpec& v : data.versions()) {
    // New records of this version: rids at or above the watermark.
    std::vector<core::RecordId> fresh;
    for (core::RecordId rid : v.rids) {
      if (rid >= watermark) fresh.push_back(rid);
    }
    std::sort(fresh.begin(), fresh.end());
    rel::Chunk new_rows = data.RowsFor(fresh);
    rel::Schema rec_schema;
    rec_schema.AddColumn("rid", rel::DataType::kInt64);
    for (const rel::ColumnDef& def : new_rows.schema().columns()) {
      rec_schema.AddColumn(def.name, def.type);
    }
    rel::Chunk new_records(rec_schema);
    for (core::RecordId rid : fresh) new_records.mutable_column(0).AppendInt(rid);
    std::vector<uint32_t> all(new_rows.num_rows());
    std::iota(all.begin(), all.end(), 0);
    for (int c = 0; c < new_rows.num_columns(); ++c) {
      new_records.mutable_column(c + 1).Gather(new_rows.column(c), all);
    }
    if (!fresh.empty()) {
      watermark = std::max(watermark, fresh.back() + 1);
    }

    core::VersionId primary_parent = -1;
    if (!v.parents.empty()) {
      size_t best = 0;
      for (size_t p = 1; p < v.parents.size(); ++p) {
        if (v.parent_weights[p] > v.parent_weights[best]) best = p;
      }
      primary_parent = v.parents[best];
    }
    ORPHEUS_RETURN_NOT_OK(
        model->AddVersion(v.vid, v.rids, new_records, primary_parent));
  }
  return Status::OK();
}

std::vector<core::VersionId> SampleVersions(const wl::Dataset& data, int count,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<core::VersionId> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(
        data.versions()[rng.Uniform(data.versions().size())].vid);
  }
  return out;
}

TablePrinter::TablePrinter(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    std::string line;
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      std::string cell = rows_[r][c];
      cell.resize(widths[c], ' ');
      line += cell;
      if (c + 1 < rows_[r].size()) line += "  ";
    }
    std::cout << line << "\n";
    if (r == 0) {
      std::string rule;
      for (size_t c = 0; c < widths.size(); ++c) {
        rule += std::string(widths[c], '-');
        if (c + 1 < widths.size()) rule += "  ";
      }
      std::cout << rule << "\n";
    }
  }
  std::cout << std::flush;
}

std::string FormatSeconds(double seconds) {
  if (seconds < 0.001) return StrFormat("%.0fus", seconds * 1e6);
  if (seconds < 1.0) return StrFormat("%.1fms", seconds * 1e3);
  return StrFormat("%.2fs", seconds);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MetricsJson(const std::string& indent) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  auto emit = [&](const std::string& key, double value) {
    if (!first) out << ",";
    first = false;
    out << "\n" << indent << "  \"" << JsonEscape(key) << "\": "
        << StrFormat("%.17g", value);
  };
  for (const obs::MetricPoint& point : obs::GlobalMetrics().Snapshot()) {
    if (point.type == obs::MetricType::kHistogram) {
      emit(point.FlatName() + "_count", static_cast<double>(point.count));
      emit(point.FlatName() + "_sum", point.sum);
    } else {
      emit(point.FlatName(), point.value);
    }
  }
  out << "\n" << indent << "}";
  return out.str();
}

std::string BenchJson(const std::string& bench,
                      const std::vector<std::string>& point_objects) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << JsonEscape(bench) << "\",\n  \"points\": [\n";
  for (size_t i = 0; i < point_objects.size(); ++i) {
    out << "    " << point_objects[i]
        << (i + 1 < point_objects.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"metrics\": " << MetricsJson("  ") << "\n}\n";
  return out.str();
}

bool WriteJsonFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  out << content;
  std::cout << "\nwrote " << path << "\n";
  return true;
}

double PromValue(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  const std::string prefix = series + " ";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size());
    }
  }
  return 0;
}

std::string FormatBytes(int64_t bytes) {
  if (bytes >= (int64_t{1} << 30)) {
    return StrFormat("%.2f GB", static_cast<double>(bytes) / (1 << 30));
  }
  if (bytes >= (1 << 20)) {
    return StrFormat("%.1f MB", static_cast<double>(bytes) / (1 << 20));
  }
  return StrFormat("%.1f KB", static_cast<double>(bytes) / (1 << 10));
}

}  // namespace orpheus::bench
