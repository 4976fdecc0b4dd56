#include "wiki/corpus_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "obs/metrics.h"

namespace tind::wiki {

std::string EscapeField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '%':
        out += "%25";
        break;
      case '|':
        out += "%7C";
        break;
      case '\n':
        out += "%0A";
        break;
      case '\r':
        out += "%0D";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Result<std::string> UnescapeField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out.push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) {
      return Status::IOError("truncated escape sequence in '" + s + "'");
    }
    const std::string hex = s.substr(i + 1, 2);
    if (hex == "25") {
      out.push_back('%');
    } else if (hex == "7C") {
      out.push_back('|');
    } else if (hex == "0A") {
      out.push_back('\n');
    } else if (hex == "0D") {
      out.push_back('\r');
    } else {
      return Status::IOError("unknown escape %" + hex);
    }
    i += 2;
  }
  return out;
}

namespace {

/// Splits an escaped 'a|b|c' field list.
std::vector<std::string> SplitPipes(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pipe = s.find('|', start);
    if (pipe == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pipe - start));
    start = pipe + 1;
  }
}

Status ErrAt(size_t line_number, const std::string& msg) {
  return Status::IOError("line " + std::to_string(line_number) + ": " + msg);
}

/// Emits lines while accumulating the CRC the footer will carry.
class CrcLineWriter {
 public:
  explicit CrcLineWriter(std::ostream& os) : os_(os) {}

  void Line(const std::string& s) {
    crc_.Update(s);
    crc_.Update('\n');
    os_ << s << '\n';
  }

  uint32_t crc() const { return crc_.value(); }

 private:
  std::ostream& os_;
  Crc32 crc_;
};

/// Reads lines while tracking the 1-based line number, the CRC of every
/// byte *before* the current line (so the footer can be checked against the
/// content it covers), and a one-line pushback for record resynchronization.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  bool Next(std::string* line) {
    if (has_pending_) {
      has_pending_ = false;
      *line = pending_;
      return true;
    }
    if (!std::getline(is_, pending_)) return false;
    ++line_number_;
    crc_before_line_ = crc_.value();
    crc_.Update(pending_);
    crc_.Update('\n');
    *line = pending_;
    return true;
  }

  /// Makes the next Next() return the most recent line again.
  void Unread() { has_pending_ = true; }

  /// 1-based number of the most recently returned line (0 before any read).
  size_t line_number() const { return line_number_; }
  /// CRC of all bytes before the most recently returned line.
  uint32_t crc_before_line() const { return crc_before_line_; }

 private:
  std::istream& is_;
  std::string pending_;
  bool has_pending_ = false;
  size_t line_number_ = 0;
  Crc32 crc_;
  uint32_t crc_before_line_ = 0;
};

/// Consumes lines until the start of the next record ("A ", "genuine ", or
/// "footer "), which is pushed back. False when the stream ends first.
bool SkipToNextRecord(LineReader* reader) {
  std::string line;
  while (reader->Next(&line)) {
    if (line.rfind("A ", 0) == 0 || line.rfind("genuine ", 0) == 0 ||
        line.rfind("footer ", 0) == 0) {
      reader->Unread();
      return true;
    }
  }
  return false;
}

/// Parses one "A ..." record (header line already read) plus its V lines and
/// appends the attribute to `dataset`. On a malformed line that could start
/// the next record, the line is pushed back before returning the error so
/// lenient readers can resynchronize.
Status ParseAttributeRecord(LineReader* reader, const std::string& a_line,
                            const ValueDictionary& dict, Dataset* dataset) {
  const size_t last_space = a_line.rfind(' ');
  if (last_space == std::string::npos || last_space < 2) {
    return ErrAt(reader->line_number(), "bad attribute line: " + a_line);
  }
  const size_t num_versions = static_cast<size_t>(
      std::strtoull(a_line.c_str() + last_space + 1, nullptr, 10));
  const std::string name = a_line.substr(2, last_space - 2);
  const std::vector<std::string> parts = SplitPipes(name);
  if (parts.size() != 3) {
    return ErrAt(reader->line_number(),
                 "attribute name needs 3 fields: " + name);
  }
  AttributeMeta meta;
  std::string* const fields[3] = {&meta.page, &meta.table, &meta.column};
  for (size_t f = 0; f < 3; ++f) {
    auto unescaped = UnescapeField(parts[f]);
    if (!unescaped.ok()) {
      return ErrAt(reader->line_number(), unescaped.status().message());
    }
    *fields[f] = std::move(*unescaped);
  }
  AttributeHistoryBuilder builder(static_cast<AttributeId>(dataset->size()),
                                  meta, dataset->domain());
  std::string line;
  for (size_t v = 0; v < num_versions; ++v) {
    if (!reader->Next(&line)) {
      return ErrAt(reader->line_number() + 1,
                   "unexpected end of file: expected version " +
                       std::to_string(v + 1) + " of " +
                       std::to_string(num_versions));
    }
    if (line.rfind("V ", 0) != 0) {
      reader->Unread();
      return ErrAt(reader->line_number(),
                   "expected version line (wrong version count?): " + line);
    }
    std::istringstream ls(line.substr(2));
    Timestamp ts = 0;
    size_t cardinality = 0;
    if (!(ls >> ts >> cardinality)) {
      return ErrAt(reader->line_number(), "bad version line: " + line);
    }
    std::vector<ValueId> ids(cardinality);
    for (size_t i = 0; i < cardinality; ++i) {
      if (!(ls >> ids[i]) || ids[i] >= dict.size()) {
        return ErrAt(reader->line_number(), "bad value id in line: " + line);
      }
    }
    const Status added =
        builder.AddVersion(ts, ValueSet::FromUnsorted(std::move(ids)));
    if (!added.ok()) {
      return ErrAt(reader->line_number(), added.message());
    }
  }
  auto history = builder.Finish();
  if (!history.ok()) {
    return ErrAt(reader->line_number(), history.status().message());
  }
  dataset->Add(std::move(*history));
  return Status::OK();
}

Status ParseGenuinePair(LineReader* reader, const std::string& line,
                        GroundTruth* ground_truth) {
  if (line.rfind("G ", 0) != 0) {
    return ErrAt(reader->line_number(), "expected genuine-pair line: " + line);
  }
  const std::vector<std::string> parts = SplitPipes(line.substr(2));
  if (parts.size() != 2) {
    return ErrAt(reader->line_number(), "bad genuine-pair line: " + line);
  }
  auto lhs = UnescapeField(parts[0]);
  auto rhs = UnescapeField(parts[1]);
  if (!lhs.ok() || !rhs.ok()) {
    return ErrAt(reader->line_number(),
                 (lhs.ok() ? rhs : lhs).status().message());
  }
  ground_truth->AddGenuine(*lhs, *rhs);
  return Status::OK();
}

/// Publishes the skip counter and hands the result back.
Result<LoadedDataset> Finish(LoadedDataset out) {
  if (out.skipped_records > 0) {
    TIND_OBS_COUNTER_ADD("corpus_io/records_skipped", out.skipped_records);
  }
  return out;
}

std::string CrcHex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

}  // namespace

Status WriteDataset(const Dataset& dataset, const GroundTruth* ground_truth,
                    std::ostream& os) {
  CrcLineWriter writer(os);
  writer.Line("TIND-DATASET 1");
  writer.Line("domain " + std::to_string(dataset.domain().num_timestamps()));
  const ValueDictionary& dict = dataset.dictionary();
  writer.Line("values " + std::to_string(dict.size()));
  for (size_t i = 0; i < dict.size(); ++i) {
    writer.Line(EscapeField(dict.GetString(static_cast<ValueId>(i))));
  }
  writer.Line("attributes " + std::to_string(dataset.size()));
  std::string line;
  for (AttributeId id = 0; id < dataset.size(); ++id) {
    const AttributeHistory& attr = dataset.attribute(id);
    line = "A ";
    line += EscapeField(attr.meta().page);
    line += '|';
    line += EscapeField(attr.meta().table);
    line += '|';
    line += EscapeField(attr.meta().column);
    line += ' ';
    line += std::to_string(attr.num_versions());
    writer.Line(line);
    for (size_t v = 0; v < attr.num_versions(); ++v) {
      const ValueSet& values = attr.versions()[v];
      line = "V ";
      line += std::to_string(attr.change_timestamps()[v]);
      line += ' ';
      line += std::to_string(values.size());
      for (const ValueId id : values.values()) {
        line += ' ';
        line += std::to_string(id);
      }
      writer.Line(line);
    }
  }
  if (ground_truth != nullptr) {
    writer.Line("genuine " + std::to_string(ground_truth->size()));
    for (const auto& [lhs, rhs] : ground_truth->pairs()) {
      writer.Line("G " + EscapeField(lhs) + "|" + EscapeField(rhs));
    }
  }
  // Integrity footer over everything above; readers use it to detect
  // truncation and bit rot.
  os << "footer " << CrcHex(writer.crc()) << "\n";
  if (!os.good()) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteDatasetFile(const Dataset& dataset, const GroundTruth* ground_truth,
                        const std::string& path) {
  if (TIND_FAULT_POINT("corpus_io/write")) {
    return Status::IOError("injected fault: corpus_io/write (" + path + ")");
  }
  // Atomic publish (common/atomic_file.h): a crashed writer never leaves a
  // half-written corpus under the real name.
  return WriteFileAtomic(path, [&](std::ostream& os) {
    return WriteDataset(dataset, ground_truth, os);
  });
}

Result<LoadedDataset> ReadDataset(std::istream& is,
                                  const ReadOptions& options) {
  LineReader reader(is);
  std::string line;
  if (!reader.Next(&line)) return ErrAt(1, "empty stream (missing header)");
  if (line != "TIND-DATASET 1") {
    return ErrAt(reader.line_number(), "bad magic header: " + line);
  }
  int64_t num_days = 0;
  {
    if (!reader.Next(&line)) {
      return ErrAt(reader.line_number() + 1,
                   "unexpected end of file: missing domain line");
    }
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> num_days) || tag != "domain" || num_days <= 0) {
      return ErrAt(reader.line_number(), "bad domain line: " + line);
    }
  }
  LoadedDataset out;
  out.dataset =
      Dataset(TimeDomain(num_days), std::make_shared<ValueDictionary>());
  ValueDictionary* dict = out.dataset.mutable_dictionary();

  size_t num_values = 0;
  {
    if (!reader.Next(&line)) {
      return ErrAt(reader.line_number() + 1,
                   "unexpected end of file: missing values line");
    }
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> num_values) || tag != "values") {
      return ErrAt(reader.line_number(), "bad values line: " + line);
    }
  }
  for (size_t i = 0; i < num_values; ++i) {
    if (!reader.Next(&line)) {
      if (options.strict) {
        return ErrAt(reader.line_number() + 1,
                     "unexpected end of file in values section (" +
                         std::to_string(i) + " of " +
                         std::to_string(num_values) + " read)");
      }
      out.truncated = true;
      out.skipped_records += num_values - i;
      return Finish(std::move(out));
    }
    auto value = UnescapeField(line);
    std::string interned;
    if (value.ok()) {
      interned = std::move(*value);
    } else if (options.strict) {
      return ErrAt(reader.line_number(), value.status().message());
    } else {
      // Keep value-id alignment with a unique placeholder ('\x01' cannot
      // appear in real escaped values) and count the corruption.
      interned = std::string("\x01corrupt-value-") + std::to_string(i);
      ++out.skipped_records;
    }
    if (dict->Intern(interned) != static_cast<ValueId>(i)) {
      if (options.strict) {
        return ErrAt(reader.line_number(),
                     "duplicate value in dictionary: " + interned);
      }
      dict->Intern(std::string("\x01duplicate-value-") + std::to_string(i));
      ++out.skipped_records;
    }
  }

  size_t num_attributes = 0;
  {
    if (!reader.Next(&line)) {
      if (options.strict) {
        return ErrAt(reader.line_number() + 1,
                     "unexpected end of file: missing attributes line");
      }
      out.truncated = true;
      return Finish(std::move(out));
    }
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> num_attributes) || tag != "attributes") {
      return ErrAt(reader.line_number(), "bad attributes line: " + line);
    }
  }
  for (size_t a = 0; a < num_attributes; ++a) {
    if (!reader.Next(&line)) {
      if (options.strict) {
        return ErrAt(reader.line_number() + 1,
                     "unexpected end of file: expected attribute " +
                         std::to_string(a + 1) + " of " +
                         std::to_string(num_attributes));
      }
      out.truncated = true;
      out.skipped_records += num_attributes - a;
      return Finish(std::move(out));
    }
    if (line.rfind("A ", 0) != 0) {
      if (options.strict) {
        return ErrAt(reader.line_number(), "expected attribute line: " + line);
      }
      ++out.skipped_records;
      reader.Unread();
      if (!SkipToNextRecord(&reader)) {
        out.truncated = true;
        out.skipped_records += num_attributes - a - 1;
        return Finish(std::move(out));
      }
      continue;
    }
    Status record = TIND_FAULT_POINT("corpus_io/read")
                        ? ErrAt(reader.line_number(),
                                "injected fault: corpus_io/read")
                        : ParseAttributeRecord(&reader, line, *dict,
                                               &out.dataset);
    if (!record.ok()) {
      if (options.strict) return record;
      ++out.skipped_records;
      if (!SkipToNextRecord(&reader)) {
        out.truncated = true;
        out.skipped_records += num_attributes - a - 1;
        return Finish(std::move(out));
      }
    }
  }

  // Trailer: optional ground truth, then the integrity footer.
  while (true) {
    if (!reader.Next(&line)) {
      if (options.strict) {
        return ErrAt(reader.line_number() + 1,
                     "truncated file: missing footer");
      }
      out.truncated = true;
      break;
    }
    if (line.rfind("genuine ", 0) == 0) {
      const size_t count = static_cast<size_t>(
          std::strtoull(line.c_str() + 8, nullptr, 10));
      bool hit_eof = false;
      for (size_t i = 0; i < count; ++i) {
        if (!reader.Next(&line)) {
          if (options.strict) {
            return ErrAt(reader.line_number() + 1,
                         "unexpected end of file in genuine section");
          }
          out.skipped_records += count - i;
          hit_eof = true;
          break;
        }
        if (line.rfind("footer ", 0) == 0) {
          // Fewer pairs than declared: resynchronize on the footer.
          if (options.strict) {
            return ErrAt(reader.line_number(),
                         "genuine section truncated: expected " +
                             std::to_string(count) + " pairs, got " +
                             std::to_string(i));
          }
          out.skipped_records += count - i;
          reader.Unread();
          break;
        }
        const Status pair = ParseGenuinePair(&reader, line, &out.ground_truth);
        if (!pair.ok()) {
          if (options.strict) return pair;
          ++out.skipped_records;
        }
      }
      if (hit_eof) {
        out.truncated = true;
        break;
      }
      continue;
    }
    if (line.rfind("footer ", 0) == 0) {
      const uint32_t computed = reader.crc_before_line();
      char* end = nullptr;
      const unsigned long claimed = std::strtoul(line.c_str() + 7, &end, 16);
      if (end == line.c_str() + 7 || *end != '\0') {
        if (options.strict) {
          return ErrAt(reader.line_number(), "bad footer line: " + line);
        }
        out.truncated = true;
        break;
      }
      // Skipped records already falsify the checksum, so only strict mode
      // verifies it.
      if (options.strict && static_cast<uint32_t>(claimed) != computed) {
        return ErrAt(reader.line_number(),
                     "CRC mismatch: footer claims " +
                         CrcHex(static_cast<uint32_t>(claimed)) +
                         ", content hashes to " + CrcHex(computed) +
                         " (corrupt or modified file)");
      }
      if (reader.Next(&line) && options.strict) {
        return ErrAt(reader.line_number(), "trailing data after footer");
      }
      break;
    }
    if (options.strict) {
      return ErrAt(reader.line_number(),
                   "expected 'genuine' or 'footer' line: " + line);
    }
    ++out.skipped_records;
  }
  return Finish(std::move(out));
}

Result<LoadedDataset> ReadDatasetFile(const std::string& path,
                                      const ReadOptions& options) {
  std::ifstream file(path);
  if (!file.is_open()) return Status::IOError("cannot open " + path);
  return ReadDataset(file, options);
}

}  // namespace tind::wiki
