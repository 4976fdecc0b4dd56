/// \file snapshot_writer.cc
/// TindIndex::SaveSnapshot / CompactSnapshot — serializes a built index into
/// the versioned section format of snapshot_format.h. Small sections
/// (manifest, caches, metadata) are assembled in memory; matrix planes are
/// streamed row by row directly from the in-memory BitVectors, whose padded
/// word layout is the on-disk layout. CompactSnapshot additionally reuses
/// the payload bytes (and stored CRCs) of sections an incremental update
/// left clean, copying them out of the previous mmap'd artifact instead of
/// re-serializing — the section table is order-independent at load, so the
/// result is indistinguishable from (in fact byte-identical to) a full
/// save. Publication is atomic (common/atomic_file.h), and every section's
/// CRC-32 lands in the table before any payload byte, so a reader never has
/// to trust an unverified length or plane.

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/build_info.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "snapshot/mapped_file.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_format.h"
#include "tind/index.h"
#include "tind/update.h"

namespace tind {

namespace {

using snapshot::AlignUp;
using snapshot::AppendPodT;
using snapshot::AppendString;
using snapshot::FileHeader;
using snapshot::ManifestFixed;
using snapshot::MatrixHeader;
using snapshot::SectionEntry;

/// Section id -> (payload bytes in a previous artifact, stored CRC-32).
using SectionReuseMap =
    std::unordered_map<uint32_t, std::pair<std::string_view, uint32_t>>;

struct PendingSection {
  uint32_t id = 0;
  std::string payload;             ///< Small sections: full payload bytes.
  const BloomMatrix* matrix = nullptr;  ///< Matrix sections: streamed rows.
  MatrixHeader matrix_header;
  /// Clean sections during compaction: bytes copied from the old artifact.
  std::string_view reused;
  bool is_reused = false;
  uint64_t size = 0;
  uint32_t crc = 0;
};

MatrixHeader MakeMatrixHeader(const BloomMatrix& matrix) {
  MatrixHeader h;
  h.num_bits = matrix.num_bits();
  h.num_columns = matrix.num_columns();
  h.row_words = PadWordCount((matrix.num_columns() + 63) / 64);
  h.plane_bytes = h.num_bits * h.row_words * sizeof(uint64_t);
  h.num_hashes = matrix.num_hashes();
  return h;
}

std::string_view RowBytes(const BitVector& row) {
  const WordSpan words = row.words();
  return std::string_view(reinterpret_cast<const char*>(words.data()),
                          words.size() * sizeof(uint64_t));
}

PendingSection MakeReusedSection(uint32_t id, std::string_view payload,
                                 uint32_t crc) {
  PendingSection s;
  s.id = id;
  s.reused = payload;
  s.is_reused = true;
  s.size = payload.size();
  s.crc = crc;
  return s;
}

PendingSection MakeMatrixSection(uint32_t id, const BloomMatrix& matrix,
                                 const SectionReuseMap* reuse) {
  if (reuse != nullptr) {
    const auto it = reuse->find(id);
    if (it != reuse->end()) {
      return MakeReusedSection(id, it->second.first, it->second.second);
    }
  }
  PendingSection s;
  s.id = id;
  s.matrix = &matrix;
  s.matrix_header = MakeMatrixHeader(matrix);
  s.size = sizeof(MatrixHeader) + s.matrix_header.plane_bytes;
  Crc32 crc;
  crc.Update(std::string_view(
      reinterpret_cast<const char*>(&s.matrix_header), sizeof(MatrixHeader)));
  for (size_t r = 0; r < matrix.num_bits(); ++r) {
    crc.Update(RowBytes(matrix.row(r)));
  }
  s.crc = crc.value();
  return s;
}

PendingSection MakeSmallSection(uint32_t id, std::string payload) {
  PendingSection s;
  s.id = id;
  s.payload = std::move(payload);
  s.size = s.payload.size();
  s.crc = Crc32Of(s.payload);
  return s;
}

/// Reuse-aware small-section assembly: when the id is reusable, `build` is
/// never invoked (that is the compaction saving for serialization-heavy
/// sections like the dictionary).
template <typename BuildFn>
PendingSection MakeSmallSectionLazy(uint32_t id, const SectionReuseMap* reuse,
                                    BuildFn&& build) {
  if (reuse != nullptr) {
    const auto it = reuse->find(id);
    if (it != reuse->end()) {
      return MakeReusedSection(id, it->second.first, it->second.second);
    }
  }
  return MakeSmallSection(id, build());
}

}  // namespace

Status TindIndex::WriteSnapshotFile(
    const std::string& path,
    const std::unordered_map<uint32_t, std::pair<std::string_view, uint32_t>>*
        reuse) const {
  TIND_OBS_SCOPED_TIMER("snapshot_save");
  if (TIND_FAULT_POINT("snapshot/write")) {
    return Status::IOError("injected fault: snapshot/write (" + path + ")");
  }
  if (dataset_ == nullptr) {
    return Status::FailedPrecondition("index has no dataset; nothing to save");
  }

  const std::string weight_desc = options_.weight->ToString();

  std::vector<PendingSection> sections;
  // Manifest: always rewritten (its corpus digest covers every attribute's
  // content, so any delta invalidates it).
  {
    ManifestFixed manifest;
    manifest.options_hash =
        snapshot::ComputeOptionsHash(options_, weight_desc);
    manifest.corpus_digest = snapshot::ComputeCorpusDigest(*dataset_);
    manifest.bloom_bits = options_.bloom_bits;
    manifest.num_slices = options_.num_slices;
    manifest.reverse_slices = options_.reverse_slices;
    manifest.seed = options_.seed;
    std::memcpy(&manifest.epsilon_bits, &options_.epsilon, sizeof(double));
    manifest.delta = options_.delta;
    manifest.num_attributes = dataset_->size();
    manifest.num_timestamps = dataset_->domain().num_timestamps();
    manifest.epoch_day = dataset_->domain().epoch_day();
    manifest.dictionary_size = dataset_->dictionary().size();
    manifest.num_hashes = options_.num_hashes;
    manifest.strategy = static_cast<uint32_t>(options_.strategy);
    manifest.build_reverse_index = has_reverse_ ? 1 : 0;
    std::string manifest_bytes;
    AppendPodT(&manifest_bytes, manifest);
    AppendString(&manifest_bytes, weight_desc);
    AppendString(&manifest_bytes, BuildInfoString());
    sections.push_back(MakeSmallSection(snapshot::kSectionManifest,
                                        std::move(manifest_bytes)));
  }

  // Dictionary (positional ids — round-tripping preserves every ValueId).
  sections.push_back(
      MakeSmallSectionLazy(snapshot::kSectionDictionary, reuse, [&]() {
        std::string dict_bytes;
        dataset_->dictionary().SerializeTo(&dict_bytes);
        return dict_bytes;
      }));

  // Attribute metadata: enough for inspect tooling and sanity checks; the
  // full histories stay in the corpus file (LoadSnapshot takes the Dataset).
  sections.push_back(
      MakeSmallSectionLazy(snapshot::kSectionAttributeMeta, reuse, [&]() {
        std::string meta_bytes;
        AppendPodT(&meta_bytes, static_cast<uint64_t>(dataset_->size()));
        for (AttributeId id = 0; id < dataset_->size(); ++id) {
          const AttributeHistory& attr = dataset_->attribute(id);
          AppendString(&meta_bytes, attr.meta().page);
          AppendString(&meta_bytes, attr.meta().table);
          AppendString(&meta_bytes, attr.meta().column);
          AppendPodT(&meta_bytes, static_cast<uint64_t>(attr.num_versions()));
        }
        return meta_bytes;
      }));

  // Slice intervals.
  sections.push_back(
      MakeSmallSectionLazy(snapshot::kSectionSliceIntervals, reuse, [&]() {
        std::string intervals_bytes;
        AppendPodT(&intervals_bytes,
                   static_cast<uint64_t>(slice_intervals_.size()));
        for (const Interval& interval : slice_intervals_) {
          AppendPodT(&intervals_bytes, static_cast<int64_t>(interval.begin));
          AppendPodT(&intervals_bytes, static_cast<int64_t>(interval.end));
        }
        return intervals_bytes;
      }));

  if (has_reverse_) {
    // Required-value cache: R_{ε,w}(A) per attribute at the build (ε, w).
    sections.push_back(
        MakeSmallSectionLazy(snapshot::kSectionRequiredValues, reuse, [&]() {
          std::string required_bytes;
          AppendPodT(&required_bytes,
                     static_cast<uint64_t>(required_values_.size()));
          for (const ValueSet& values : required_values_) {
            AppendPodT(&required_bytes, static_cast<uint64_t>(values.size()));
            for (const ValueId id : values.values()) {
              AppendPodT(&required_bytes, id);
            }
          }
          return required_bytes;
        }));

    // Minimum-weight cache, doubles persisted as exact bit patterns so the
    // loaded index adds bit-identical violation weights.
    sections.push_back(
        MakeSmallSectionLazy(snapshot::kSectionMinWeights, reuse, [&]() {
          std::string weights_bytes;
          AppendPodT(&weights_bytes,
                     static_cast<uint64_t>(reverse_min_weights_.size()));
          AppendPodT(&weights_bytes, static_cast<uint64_t>(dataset_->size()));
          for (const std::vector<double>& row : reverse_min_weights_) {
            for (const double w : row) {
              uint64_t bits = 0;
              std::memcpy(&bits, &w, sizeof(bits));
              AppendPodT(&weights_bytes, bits);
            }
          }
          return weights_bytes;
        }));
  }

  sections.push_back(
      MakeMatrixSection(snapshot::kSectionMatrixFull, full_matrix_, reuse));
  for (size_t j = 0; j < slice_matrices_.size(); ++j) {
    sections.push_back(MakeMatrixSection(
        static_cast<uint32_t>(snapshot::kSectionMatrixSliceBase + j),
        slice_matrices_[j], reuse));
  }
  if (has_reverse_) {
    sections.push_back(MakeMatrixSection(snapshot::kSectionMatrixReverse,
                                         reverse_matrix_, reuse));
  }

  // Layout: every section starts 64-byte aligned so matrix planes (which
  // begin sizeof(MatrixHeader) == 64 bytes into their section) stay aligned
  // for the zero-copy kernels.
  std::vector<SectionEntry> table(sections.size());
  uint64_t offset = AlignUp(sizeof(FileHeader) +
                            sections.size() * sizeof(SectionEntry));
  size_t reused_sections = 0;
  for (size_t i = 0; i < sections.size(); ++i) {
    table[i].id = sections[i].id;
    table[i].offset = offset;
    table[i].size = sections[i].size;
    table[i].crc32 = sections[i].crc;
    offset = AlignUp(offset + sections[i].size);
    if (sections[i].is_reused) ++reused_sections;
  }
  const uint64_t file_size = offset;

  FileHeader header;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.flags = has_reverse_ ? snapshot::kFlagHasReverse : 0;
  header.file_size = file_size;
  header.section_table_crc = Crc32Of(std::string_view(
      reinterpret_cast<const char*>(table.data()),
      table.size() * sizeof(SectionEntry)));
  header.header_crc = snapshot::HeaderCrc(header);

  const Status written = WriteFileAtomic(
      path,
      [&](std::ostream& os) {
        uint64_t pos = 0;
        const auto put = [&](const void* p, size_t n) {
          os.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
          pos += n;
        };
        const auto pad_to = [&](uint64_t target) {
          static const char zeros[snapshot::kSectionAlign] = {};
          while (pos < target) {
            const size_t n =
                std::min<uint64_t>(sizeof(zeros), target - pos);
            put(zeros, n);
          }
        };
        put(&header, sizeof(header));
        put(table.data(), table.size() * sizeof(SectionEntry));
        for (size_t i = 0; i < sections.size(); ++i) {
          pad_to(table[i].offset);
          const PendingSection& s = sections[i];
          if (s.is_reused) {
            put(s.reused.data(), s.reused.size());
          } else if (s.matrix != nullptr) {
            put(&s.matrix_header, sizeof(MatrixHeader));
            for (size_t r = 0; r < s.matrix->num_bits(); ++r) {
              const std::string_view row = RowBytes(s.matrix->row(r));
              put(row.data(), row.size());
            }
          } else {
            put(s.payload.data(), s.payload.size());
          }
        }
        pad_to(file_size);
        if (!os.good()) return Status::IOError("stream write failed");
        return Status::OK();
      },
      /*binary=*/true);
  if (!written.ok()) return written;

  TIND_OBS_COUNTER_ADD("snapshot/writes", 1);
  TIND_OBS_COUNTER_ADD("snapshot/write_bytes", file_size);
  TIND_OBS_COUNTER_ADD("snapshot/sections_written", sections.size());
  TIND_OBS_COUNTER_ADD("snapshot/sections_reused", reused_sections);
  return Status::OK();
}

Status TindIndex::SaveSnapshot(const std::string& path) const {
  return WriteSnapshotFile(path, /*reuse=*/nullptr);
}

Status TindIndex::CompactSnapshot(const std::string& previous_path,
                                  const std::string& path,
                                  const UpdateStats& stats) const {
  TIND_OBS_SCOPED_TIMER("snapshot_compact");
  TIND_OBS_COUNTER_ADD("snapshot/compactions", 1);

  auto mapped_or = snapshot::MappedFile::Open(previous_path);
  if (!mapped_or.ok()) return mapped_or.status();
  const std::shared_ptr<snapshot::MappedFile> mapped = std::move(*mapped_or);

  // Validate the previous artifact's header and section table before trusting
  // any byte range out of it.
  if (mapped->size() < sizeof(FileHeader)) {
    return Status::InvalidArgument("previous snapshot too small: " +
                                   previous_path);
  }
  FileHeader old_header;
  std::memcpy(&old_header, mapped->data(), sizeof(old_header));
  if (old_header.magic != snapshot::kMagic ||
      old_header.format_version != snapshot::kFormatVersion ||
      old_header.header_crc != snapshot::HeaderCrc(old_header) ||
      old_header.file_size != mapped->size()) {
    return Status::FailedPrecondition("previous snapshot invalid: " +
                                      previous_path);
  }
  const uint64_t table_end =
      sizeof(FileHeader) +
      static_cast<uint64_t>(old_header.section_count) * sizeof(SectionEntry);
  if (table_end > mapped->size()) {
    return Status::InvalidArgument("previous snapshot table truncated: " +
                                   previous_path);
  }
  const auto* old_table = reinterpret_cast<const SectionEntry*>(
      mapped->data() + sizeof(FileHeader));
  const uint32_t table_crc = Crc32Of(std::string_view(
      reinterpret_cast<const char*>(old_table),
      old_header.section_count * sizeof(SectionEntry)));
  if (table_crc != old_header.section_table_crc) {
    return Status::IOError("previous snapshot table corrupt: " +
                            previous_path);
  }

  // Sections the update left clean. Everything not listed here (manifest,
  // required values, min weights, M_T, M_R, dirty slices) is re-serialized.
  std::vector<uint32_t> clean_ids;
  if (!stats.dictionary_dirty) {
    clean_ids.push_back(snapshot::kSectionDictionary);
  }
  if (!stats.attribute_meta_dirty && stats.attributes_added == 0) {
    clean_ids.push_back(snapshot::kSectionAttributeMeta);
  }
  if (!stats.slice_intervals_changed) {
    clean_ids.push_back(snapshot::kSectionSliceIntervals);
  }
  for (size_t j = 0; j < stats.slice_dirty.size(); ++j) {
    if (!stats.slice_dirty[j]) {
      clean_ids.push_back(
          static_cast<uint32_t>(snapshot::kSectionMatrixSliceBase + j));
    }
  }

  std::unordered_map<uint32_t, std::pair<std::string_view, uint32_t>> reuse;
  for (const uint32_t id : clean_ids) {
    const SectionEntry* entry = nullptr;
    for (uint32_t i = 0; i < old_header.section_count; ++i) {
      if (old_table[i].id == id) {
        entry = &old_table[i];
        break;
      }
    }
    // A missing section simply falls back to re-serialization.
    if (entry == nullptr) continue;
    if (entry->offset + entry->size > mapped->size()) {
      return Status::IOError("previous snapshot section out of bounds: " +
                              snapshot::SectionName(id));
    }
    const std::string_view payload(
        reinterpret_cast<const char*>(mapped->data() + entry->offset),
        entry->size);
    // Verify before reuse: a rotted clean section must fail compaction here,
    // not surface as a CRC mismatch in the *new* artifact at load time.
    if (Crc32Of(payload) != entry->crc32) {
      return Status::IOError("previous snapshot section corrupt: " +
                              snapshot::SectionName(id));
    }
    reuse.emplace(id, std::make_pair(payload, entry->crc32));
  }

  return WriteSnapshotFile(path, &reuse);
}

}  // namespace tind
