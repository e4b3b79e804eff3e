// dataset.h — a chunked dataset: ordered chunks plus descriptive metadata.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "repository/chunk.h"

namespace fgp::obs {
class Registry;
}  // namespace fgp::obs

namespace fgp::repository {

/// Metadata travelling with a dataset (and recorded into profiles: the
/// prediction model's "s" is total_virtual_bytes()).
struct DatasetMeta {
  std::string name;
  std::string schema;  ///< free-form element description, e.g. "f64 point dim=8"
  std::uint64_t seed = 0;
};

/// Lazy payload provider for a streamed dataset (DESIGN.md §15): the
/// dataset holds metadata_only chunk handles and pulls bytes through its
/// source on demand, a block of up to kChunkBlock chunks per call.
/// Implementations must be thread-safe — the runtime fetches from pool
/// workers concurrently — and the fetch *is* the receipt check: it
/// verifies every fetched payload against its stored checksum (throwing
/// util::SerializationError on mismatch) before handing it out, so a
/// materialized chunk is as trustworthy as a loaded one and nobody
/// re-hashes it.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// Fills out[k] with chunk indices[k], payload resident and verified,
  /// at the scale the chunk was stored with (indices.size() ==
  /// out.size() <= kChunkBlock). Throws on IO errors or corruption; when
  /// several chunks of the block fail, the error is the first in block
  /// order — exactly what fetching them one by one would report.
  virtual void fetch_block(std::span<const std::size_t> indices,
                           std::span<Chunk> out) const = 0;
};

class ChunkedDataset {
 public:
  ChunkedDataset() = default;
  explicit ChunkedDataset(DatasetMeta meta) : meta_(std::move(meta)) {}

  const DatasetMeta& meta() const { return meta_; }
  DatasetMeta& meta() { return meta_; }

  /// Appends a chunk. A streamed dataset takes only metadata_only
  /// handles (payload-less; see attach_source).
  void add_chunk(Chunk c);

  std::size_t chunk_count() const { return chunks_.size(); }
  const Chunk& chunk(std::size_t i) const { return chunks_.at(i); }
  const std::vector<Chunk>& chunks() const { return chunks_; }

  /// The prediction model's dataset size "s" (bytes at paper scale).
  double total_virtual_bytes() const { return total_virtual_bytes_; }
  std::size_t total_real_bytes() const { return total_real_bytes_; }

  /// Rescales every chunk to `virtual_scale` and recomputes the virtual
  /// total. Payloads and checksums are untouched: the result is exactly the
  /// dataset the generator would have produced at that scale, without
  /// generating twice (the probe-then-rescale pattern in bench/common.cpp).
  void set_uniform_virtual_scale(double virtual_scale);

  /// Aliasing *view* of this dataset with every chunk rebound to
  /// `virtual_scale`: chunk handles are copied, payload slabs are shared
  /// (zero bytes moved), so concurrent sweep points over many scales all
  /// read one generated dataset (DESIGN.md §13). `metrics` (optional)
  /// receives the deterministic counter payload.shared_views — one
  /// increment per chunk view created.
  ChunkedDataset with_uniform_virtual_scale(
      double virtual_scale, obs::Registry* metrics = nullptr) const;

  /// True when every chunk's checksum verifies. In-memory chunks are
  /// re-hashed kChunkBlock at a time (one util::fnv1a_x4 pass per block);
  /// streamed chunks are fetched a block at a time and hashed once, by
  /// the fetch itself, which throws util::SerializationError on
  /// corruption instead of returning false.
  bool verify_all() const;

  /// Attaches the lazy payload source the metadata_only chunks of a
  /// streamed dataset resolve through. Views made by
  /// with_uniform_virtual_scale share the source (and its window pool).
  /// Every chunk must be a metadata_only handle: a streamed dataset's
  /// payloads all come through the source, whose fetch verifies them, so
  /// no resident chunk can bypass the receipt check.
  void attach_source(std::shared_ptr<const ChunkSource> source);
  const std::shared_ptr<const ChunkSource>& source() const { return source_; }
  /// True when chunk payloads live behind a ChunkSource.
  bool streamed() const { return source_ != nullptr; }

  /// Chunks indices[k] into out[k] (indices.size() == out.size() <=
  /// kChunkBlock) with their payloads guaranteed resident: an in-memory
  /// dataset returns plain handle copies; a streamed one fetches the whole
  /// block through its source in one call (one verifying hash per chunk)
  /// and rebinds each chunk to this dataset's virtual scale (so rescaled
  /// views materialize at the view's scale, not the stored one). The
  /// returned handles own the bytes for their lifetime — dropping them
  /// releases the bytes, which is what keeps a streamed pass's resident set
  /// flat (DESIGN.md §15).
  void materialize_block(std::span<const std::size_t> indices,
                         std::span<Chunk> out) const;

  /// Chunk `i` with its payload resident: materialize_block of one chunk.
  Chunk materialize(std::size_t i) const;

 private:
  DatasetMeta meta_;
  std::vector<Chunk> chunks_;
  std::shared_ptr<const ChunkSource> source_;
  double total_virtual_bytes_ = 0.0;
  std::size_t total_real_bytes_ = 0;
};

}  // namespace fgp::repository
