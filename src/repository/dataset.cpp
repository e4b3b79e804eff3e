#include "repository/dataset.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "obs/metrics.h"

namespace fgp::repository {

void ChunkedDataset::add_chunk(Chunk c) {
  FGP_CHECK_MSG(source_ == nullptr || c.payload_buffer() == nullptr,
                "chunk " << c.id() << ": a streamed dataset takes only "
                "metadata-only chunks");
  total_virtual_bytes_ += c.virtual_bytes();
  total_real_bytes_ += c.real_bytes();
  chunks_.push_back(std::move(c));
}

void ChunkedDataset::set_uniform_virtual_scale(double virtual_scale) {
  total_virtual_bytes_ = 0.0;
  for (auto& c : chunks_) {
    c.set_virtual_scale(virtual_scale);
    total_virtual_bytes_ += c.virtual_bytes();
  }
}

ChunkedDataset ChunkedDataset::with_uniform_virtual_scale(
    double virtual_scale, obs::Registry* metrics) const {
  ChunkedDataset view(meta_);
  for (const auto& c : chunks_)
    view.add_chunk(c.with_virtual_scale(virtual_scale));
  // A view of a streamed dataset streams from the same source (and shares
  // its window pool/budget); materialize() rebinds fetched chunks to the
  // view's scale.
  view.source_ = source_;
  if (metrics != nullptr)
    metrics->add("payload.shared_views",
                 static_cast<double>(chunks_.size()));
  return view;
}

bool ChunkedDataset::verify_all() const {
  std::array<std::size_t, kChunkBlock> indices{};
  std::array<Chunk, kChunkBlock> block;
  for (std::size_t begin = 0; begin < chunks_.size(); begin += kChunkBlock) {
    const std::size_t m = std::min(kChunkBlock, chunks_.size() - begin);
    if (streamed()) {
      // The fetch is the check: it throws on the first corrupted chunk.
      std::iota(indices.begin(), indices.end(), begin);
      materialize_block({indices.data(), m}, {block.data(), m});
    } else if (first_unverified(std::span(chunks_).subspan(begin, m)) != m) {
      return false;
    }
  }
  return true;
}

void ChunkedDataset::attach_source(std::shared_ptr<const ChunkSource> source) {
  for (const auto& c : chunks_)
    FGP_CHECK_MSG(c.payload_buffer() == nullptr,
                  "chunk " << c.id() << ": a streamed dataset takes only "
                  "metadata-only chunks");
  source_ = std::move(source);
}

void ChunkedDataset::materialize_block(std::span<const std::size_t> indices,
                                       std::span<Chunk> out) const {
  FGP_CHECK_MSG(indices.size() == out.size() && indices.size() <= kChunkBlock,
                "materialize_block of " << indices.size() << " chunks into "
                                        << out.size() << " slots");
  if (source_ == nullptr) {
    for (std::size_t k = 0; k < indices.size(); ++k)
      out[k] = chunks_.at(indices[k]);
    return;
  }
  source_->fetch_block(indices, out);
  // Rescaled views keep metadata at the view's scale; the source serves
  // the stored scale, so rebind (metadata-only — payload untouched).
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const double scale = chunks_.at(indices[k]).virtual_scale();
    if (out[k].virtual_scale() != scale) out[k].set_virtual_scale(scale);
  }
}

Chunk ChunkedDataset::materialize(std::size_t i) const {
  Chunk c;
  materialize_block({&i, 1}, {&c, 1});
  return c;
}

}  // namespace fgp::repository
