#include "ml/models.hpp"

#include <algorithm>
#include <cmath>

namespace sickle::ml {

// ---------------------------------------------------------------- LstmModel

LstmModel::LstmModel(const LstmModelConfig& cfg, Rng& rng)
    : cfg_(cfg),
      lstm1_(cfg.in_channels, cfg.hidden, rng),
      lstm2_(cfg.hidden, cfg.hidden, rng) {
  const std::size_t h = cfg.hidden;
  head_.push(std::make_unique<Dense>(h, h, rng));
  head_.push(std::make_unique<ActivationLayer>(Activation::kRelu));
  head_.push(std::make_unique<Dense>(h, h / 2, rng));
  head_.push(std::make_unique<ActivationLayer>(Activation::kRelu));
  head_.push(
      std::make_unique<Dense>(h / 2, cfg.horizon * cfg.out_channels, rng));
  child(lstm1_);
  child(lstm2_);
  child(head_);
}

Tensor LstmModel::forward(const Tensor& input) {
  SICKLE_CHECK_MSG(input.rank() == 3, "LstmModel expects [B, T, C]");
  batch_ = input.dim(0);
  steps_ = input.dim(1);
  const Tensor h2 = lstm2_.forward(lstm1_.forward(input));
  // Last timestep hidden state.
  Tensor last({batch_, cfg_.hidden});
  for (std::size_t b = 0; b < batch_; ++b) {
    std::copy_n(h2.raw() + (b * steps_ + steps_ - 1) * cfg_.hidden,
                cfg_.hidden, last.raw() + b * cfg_.hidden);
  }
  Tensor out = head_.forward(last);
  return out.reshaped({batch_, cfg_.horizon, cfg_.out_channels});
}

Tensor LstmModel::backward(const Tensor& grad_output) {
  const Tensor flat = grad_output.reshaped(
      {batch_, cfg_.horizon * cfg_.out_channels});
  const Tensor d_last = head_.backward(flat);
  Tensor d_h2({batch_, steps_, cfg_.hidden});
  for (std::size_t b = 0; b < batch_; ++b) {
    std::copy_n(d_last.raw() + b * cfg_.hidden, cfg_.hidden,
                d_h2.raw() + (b * steps_ + steps_ - 1) * cfg_.hidden);
  }
  return lstm1_.backward(lstm2_.backward(d_h2));
}

// --------------------------------------------------------------- GridDecoder

namespace {
constexpr std::size_t kDecoderSeedChannels = 8;
constexpr std::size_t kDecoderMidChannels = 4;
}  // namespace

GridDecoder::GridDecoder(std::size_t token_dim, std::size_t out_channels,
                         std::size_t edge, Rng& rng)
    : out_channels_(out_channels),
      edge_(edge),
      seed_edge_(edge / 4),
      mid_channels_(kDecoderMidChannels),
      seed_(token_dim,
            kDecoderSeedChannels * (edge / 4) * (edge / 4) * (edge / 4), rng),
      // GELU rather than ReLU: smooth activations keep the whole decoder
      // differentiable (finite-difference verifiable) with equal quality.
      act1_(Activation::kGelu),
      up1_(kDecoderSeedChannels, kDecoderMidChannels, /*kernel=*/4,
           /*stride=*/2, /*padding=*/1, rng),
      act2_(Activation::kGelu),
      up2_(kDecoderMidChannels, out_channels, /*kernel=*/4, /*stride=*/2,
           /*padding=*/1, rng) {
  SICKLE_CHECK_MSG(edge % 4 == 0 && edge >= 4,
                   "decoder edge must be a positive multiple of 4");
  for (Module* m : std::initializer_list<Module*>{&seed_, &act1_, &up1_,
                                                  &act2_, &up2_}) {
    child(*m);
  }
}

Tensor GridDecoder::forward(const Tensor& input) {
  SICKLE_CHECK_MSG(input.rank() == 2, "GridDecoder expects [B, D]");
  batch_ = input.dim(0);
  const std::size_t e0 = seed_edge_;
  Tensor x = seed_.forward(input);
  x = act1_.forward(x);
  x = x.reshaped({batch_, kDecoderSeedChannels, e0, e0, e0});
  x = up1_.forward(x);
  x = act2_.forward(x);
  return up2_.forward(x);
}

Tensor GridDecoder::backward(const Tensor& grad_output) {
  Tensor g = up2_.backward(grad_output);
  g = act2_.backward(g);
  g = up1_.backward(g);
  const std::size_t e0 = seed_edge_;
  g = g.reshaped({batch_, kDecoderSeedChannels * e0 * e0 * e0});
  g = act1_.backward(g);
  return seed_.backward(g);
}

// ----------------------------------------------------------- MlpTransformer

namespace {
constexpr std::size_t kMaxSequence = 1024;
}

MlpTransformer::MlpTransformer(const MlpTransformerConfig& cfg, Rng& rng)
    : cfg_(cfg),
      pos_embed_("pos_embed",
                 Tensor::randn({kMaxSequence, cfg.dim}, rng, 0.02f)),
      decoder_(cfg.dim, cfg.out_channels, cfg.out_edge, rng) {
  const std::size_t f = cfg.in_channels * cfg.num_points;
  encoder_.push(std::make_unique<Dense>(f, 2 * cfg.dim, rng));
  encoder_.push(std::make_unique<ActivationLayer>(Activation::kGelu));
  encoder_.push(std::make_unique<Dense>(2 * cfg.dim, cfg.dim, rng));
  for (std::size_t l = 0; l < cfg.layers; ++l) {
    blocks_.push_back(std::make_unique<TransformerEncoderLayer>(
        cfg.dim, cfg.heads, cfg.ffn, rng));
  }
  own(pos_embed_);
  child(encoder_);
  child(decoder_);
  for (auto& b : blocks_) child(*b);
}

Tensor MlpTransformer::forward(const Tensor& input) {
  SICKLE_CHECK_MSG(input.rank() == 3, "MlpTransformer expects [B, T, C*N]");
  batch_ = input.dim(0);
  steps_ = input.dim(1);
  SICKLE_CHECK_MSG(steps_ <= kMaxSequence, "sequence too long");
  SICKLE_CHECK(input.dim(2) == cfg_.in_channels * cfg_.num_points);

  const Tensor flat = input.reshaped({batch_ * steps_, input.dim(2)});
  Tensor tokens = encoder_.forward(flat).reshaped({batch_, steps_, cfg_.dim});
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = 0; t < steps_; ++t) {
      float* row = tokens.raw() + (b * steps_ + t) * cfg_.dim;
      const float* pos = pos_embed_.value.raw() + t * cfg_.dim;
      for (std::size_t j = 0; j < cfg_.dim; ++j) row[j] += pos[j];
    }
  }
  cached_tokens_ = tokens;
  Tensor x = tokens;
  for (auto& block : blocks_) x = block->forward(x);
  // Last token summarizes the sequence for the target-frame prediction.
  Tensor last({batch_, cfg_.dim});
  for (std::size_t b = 0; b < batch_; ++b) {
    std::copy_n(x.raw() + (b * steps_ + steps_ - 1) * cfg_.dim, cfg_.dim,
                last.raw() + b * cfg_.dim);
  }
  return decoder_.forward(last);
}

Tensor MlpTransformer::backward(const Tensor& grad_output) {
  const Tensor d_last = decoder_.backward(grad_output);
  Tensor g({batch_, steps_, cfg_.dim});
  for (std::size_t b = 0; b < batch_; ++b) {
    std::copy_n(d_last.raw() + b * cfg_.dim, cfg_.dim,
                g.raw() + (b * steps_ + steps_ - 1) * cfg_.dim);
  }
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  // Positional-embedding gradient: sum over batch.
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = 0; t < steps_; ++t) {
      const float* row = g.raw() + (b * steps_ + t) * cfg_.dim;
      float* pg = pos_embed_.grad.raw() + t * cfg_.dim;
      for (std::size_t j = 0; j < cfg_.dim; ++j) pg[j] += row[j];
    }
  }
  const Tensor flat_g = g.reshaped({batch_ * steps_, cfg_.dim});
  const Tensor d_flat = encoder_.backward(flat_g);
  return d_flat.reshaped(
      {batch_, steps_, cfg_.in_channels * cfg_.num_points});
}

// ----------------------------------------------------------- CnnTransformer

CnnTransformer::CnnTransformer(const CnnTransformerConfig& cfg, Rng& rng)
    : cfg_(cfg),
      conv1_(cfg.in_channels, 8, /*kernel=*/3, /*stride=*/2, /*padding=*/1,
             rng),
      act1_(Activation::kGelu),
      conv2_(8, 16, /*kernel=*/3, /*stride=*/2, /*padding=*/1, rng),
      act2_(Activation::kGelu),
      to_token_(cfg.fine_tokens ? 8 : 16, cfg.dim, rng),
      pos_embed_("pos_embed",
                 Tensor::randn({kMaxSequence, cfg.dim}, rng, 0.02f)),
      decoder_(cfg.dim, cfg.out_channels, cfg.out_edge, rng) {
  SICKLE_CHECK_MSG(cfg.edge % 4 == 0, "cube edge must be divisible by 4");
  const std::size_t pe = cfg.fine_tokens ? cfg.edge / 2 : cfg.edge / 4;
  patches_ = pe * pe * pe;
  for (std::size_t l = 0; l < cfg.layers; ++l) {
    blocks_.push_back(std::make_unique<TransformerEncoderLayer>(
        cfg.dim, cfg.heads, cfg.ffn, rng));
  }
  own(pos_embed_);
  child(conv1_);
  child(act1_);
  // Fine tokens skip conv2_, but it is still built above: its weights are
  // drawn from the RNG that seeds every later layer.
  if (!cfg.fine_tokens) {
    child(conv2_);
    child(act2_);
  }
  child(to_token_);
  child(decoder_);
  for (auto& b : blocks_) child(*b);
}

Tensor CnnTransformer::forward(const Tensor& input) {
  SICKLE_CHECK_MSG(input.rank() == 6,
                   "CnnTransformer expects [B, T, C, E, E, E]");
  batch_ = input.dim(0);
  steps_ = input.dim(1);
  SICKLE_CHECK_MSG(steps_ <= kMaxSequence, "sequence too long");
  const std::size_t e = cfg_.edge;
  SICKLE_CHECK(input.dim(2) == cfg_.in_channels && input.dim(3) == e);

  // Fold time into the conv batch.
  Tensor x = input.reshaped({batch_ * steps_, cfg_.in_channels, e, e, e});
  x = act1_.forward(conv1_.forward(x));
  const std::size_t token_ch = cfg_.fine_tokens ? 8 : 16;
  if (!cfg_.fine_tokens) x = act2_.forward(conv2_.forward(x));
  // Tokenize: every (t, patch) spatial location of the conv output becomes
  // one token; feature = the conv channels. Sequence length is
  // T * patches — the volume-dependent token count whose quadratic
  // attention cost caps tractable cube sizes (paper §5.2).
  const std::size_t seq = steps_ * patches_;
  SICKLE_CHECK_MSG(seq <= kMaxSequence, "token sequence too long");
  Tensor patch_feats({batch_ * seq, token_ch});
  for (std::size_t bt = 0; bt < batch_ * steps_; ++bt) {
    for (std::size_t c = 0; c < token_ch; ++c) {
      const float* src = x.raw() + (bt * token_ch + c) * patches_;
      for (std::size_t pvox = 0; pvox < patches_; ++pvox) {
        patch_feats[(bt * patches_ + pvox) * token_ch + c] = src[pvox];
      }
    }
  }
  Tensor tokens =
      to_token_.forward(patch_feats).reshaped({batch_, seq, cfg_.dim});
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = 0; t < seq; ++t) {
      float* row = tokens.raw() + (b * seq + t) * cfg_.dim;
      const float* pos = pos_embed_.value.raw() + t * cfg_.dim;
      for (std::size_t j = 0; j < cfg_.dim; ++j) row[j] += pos[j];
    }
  }
  Tensor y = tokens;
  for (auto& block : blocks_) y = block->forward(y);
  // Mean-pool the final frame's tokens into the decoder seed.
  Tensor pooled({batch_, cfg_.dim});
  const float inv_p = 1.0f / static_cast<float>(patches_);
  for (std::size_t b = 0; b < batch_; ++b) {
    float* dst = pooled.raw() + b * cfg_.dim;
    for (std::size_t pvox = 0; pvox < patches_; ++pvox) {
      const float* src =
          y.raw() + (b * seq + (steps_ - 1) * patches_ + pvox) * cfg_.dim;
      for (std::size_t j = 0; j < cfg_.dim; ++j) dst[j] += src[j] * inv_p;
    }
  }
  return decoder_.forward(pooled);
}

Tensor CnnTransformer::backward(const Tensor& grad_output) {
  const std::size_t seq = steps_ * patches_;
  const Tensor d_pooled = decoder_.backward(grad_output);
  Tensor g({batch_, seq, cfg_.dim});
  const float inv_p = 1.0f / static_cast<float>(patches_);
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* src = d_pooled.raw() + b * cfg_.dim;
    for (std::size_t pvox = 0; pvox < patches_; ++pvox) {
      float* dst =
          g.raw() + (b * seq + (steps_ - 1) * patches_ + pvox) * cfg_.dim;
      for (std::size_t j = 0; j < cfg_.dim; ++j) dst[j] = src[j] * inv_p;
    }
  }
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = 0; t < seq; ++t) {
      const float* row = g.raw() + (b * seq + t) * cfg_.dim;
      float* pg = pos_embed_.grad.raw() + t * cfg_.dim;
      for (std::size_t j = 0; j < cfg_.dim; ++j) pg[j] += row[j];
    }
  }
  const Tensor d_tok =
      to_token_.backward(g.reshaped({batch_ * seq, cfg_.dim}));
  // Un-tokenize back to conv layout [B*T, C, pe, pe, pe].
  const std::size_t token_ch = cfg_.fine_tokens ? 8 : 16;
  const std::size_t pe = cfg_.fine_tokens ? cfg_.edge / 2 : cfg_.edge / 4;
  Tensor d_conv({batch_ * steps_, token_ch, pe, pe, pe});
  for (std::size_t bt = 0; bt < batch_ * steps_; ++bt) {
    for (std::size_t c = 0; c < token_ch; ++c) {
      float* dst = d_conv.raw() + (bt * token_ch + c) * patches_;
      for (std::size_t pvox = 0; pvox < patches_; ++pvox) {
        dst[pvox] = d_tok[(bt * patches_ + pvox) * token_ch + c];
      }
    }
  }
  if (!cfg_.fine_tokens) {
    d_conv = conv2_.backward(act2_.backward(d_conv));
  }
  Tensor d_in = conv1_.backward(act1_.backward(d_conv));
  const std::size_t e = cfg_.edge;
  return d_in.reshaped({batch_, steps_, cfg_.in_channels, e, e, e});
}

// ---------------------------------------------------------- FoundationModel

FoundationModel::FoundationModel(const FoundationModelConfig& cfg, Rng& rng)
    : cfg_(cfg),
      patches_per_axis_(cfg.edge / cfg.patch),
      num_patches_(patches_per_axis_ * patches_per_axis_ * patches_per_axis_),
      patch_voxels_(cfg.patch * cfg.patch * cfg.patch),
      coarse_embed_(cfg.in_channels * cfg.patch * cfg.patch * cfg.patch,
                    cfg.dim, rng),
      fine_embed_(cfg.in_channels * cfg.patch * cfg.patch * cfg.patch,
                  cfg.dim, rng),
      pos_embed_("pos_embed", Tensor()),
      decode_(cfg.dim, cfg.out_channels * cfg.patch * cfg.patch * cfg.patch,
              rng) {
  SICKLE_CHECK_MSG(cfg.edge % cfg.patch == 0,
                   "edge must be divisible by patch");
  pos_embed_ = Param("pos_embed",
                     Tensor::randn({num_patches_, cfg.dim}, rng, 0.02f));
  for (std::size_t l = 0; l < cfg.layers; ++l) {
    blocks_.push_back(std::make_unique<TransformerEncoderLayer>(
        cfg.dim, cfg.heads, cfg.ffn, rng));
  }
  own(pos_embed_);
  child(coarse_embed_);
  child(fine_embed_);
  child(decode_);
  for (auto& b : blocks_) child(*b);
}

Tensor FoundationModel::forward(const Tensor& input) {
  SICKLE_CHECK_MSG(input.rank() == 5, "FoundationModel expects [B,C,E,E,E]");
  batch_ = input.dim(0);
  const std::size_t C = cfg_.in_channels;
  const std::size_t E = cfg_.edge;
  const std::size_t P = cfg_.patch;
  const std::size_t ppa = patches_per_axis_;
  SICKLE_CHECK(input.dim(1) == C && input.dim(2) == E);

  // Patchify: rows are [B * num_patches], columns C * P^3.
  const std::size_t pf = C * patch_voxels_;
  cached_patches_ = Tensor({batch_ * num_patches_, pf});
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t pz = 0; pz < ppa; ++pz) {
      for (std::size_t py = 0; py < ppa; ++py) {
        for (std::size_t px = 0; px < ppa; ++px) {
          const std::size_t pid = (pz * ppa + py) * ppa + px;
          float* row =
              cached_patches_.raw() + (b * num_patches_ + pid) * pf;
          std::size_t o = 0;
          for (std::size_t c = 0; c < C; ++c) {
            for (std::size_t z = 0; z < P; ++z) {
              for (std::size_t y = 0; y < P; ++y) {
                for (std::size_t x = 0; x < P; ++x) {
                  row[o++] = input[(((b * C + c) * E + pz * P + z) * E +
                                    py * P + y) * E + px * P + x];
                }
              }
            }
          }
        }
      }
    }
  }

  // Coarse tokens everywhere.
  Tensor tokens = coarse_embed_.forward(cached_patches_);

  // Adaptivity: refine the highest-variance patches with the fine branch.
  refined_.clear();
  const auto k = static_cast<std::size_t>(
      cfg_.adaptive_fraction * static_cast<double>(num_patches_));
  if (k > 0) {
    std::vector<std::pair<double, std::size_t>> variance;
    variance.reserve(batch_ * num_patches_);
    for (std::size_t r = 0; r < batch_ * num_patches_; ++r) {
      const float* row = cached_patches_.raw() + r * pf;
      double mean = 0.0;
      for (std::size_t j = 0; j < pf; ++j) mean += row[j];
      mean /= static_cast<double>(pf);
      double var = 0.0;
      for (std::size_t j = 0; j < pf; ++j) {
        const double d = row[j] - mean;
        var += d * d;
      }
      variance.emplace_back(var, r);
    }
    // Per batch element, take its top-k rows.
    for (std::size_t b = 0; b < batch_; ++b) {
      auto begin = variance.begin() +
                   static_cast<std::ptrdiff_t>(b * num_patches_);
      auto end = begin + static_cast<std::ptrdiff_t>(num_patches_);
      std::partial_sort(begin, begin + static_cast<std::ptrdiff_t>(k), end,
                        [](const auto& a, const auto& c) {
                          return a.first > c.first;
                        });
      for (std::size_t i = 0; i < k; ++i) {
        refined_.push_back((begin + static_cast<std::ptrdiff_t>(i))->second);
      }
    }
    std::sort(refined_.begin(), refined_.end());
    // Gather refined rows, run the fine branch, scatter-add.
    Tensor gathered({refined_.size(), pf});
    for (std::size_t i = 0; i < refined_.size(); ++i) {
      std::copy_n(cached_patches_.raw() + refined_[i] * pf, pf,
                  gathered.raw() + i * pf);
    }
    const Tensor fine = fine_embed_.forward(gathered);
    for (std::size_t i = 0; i < refined_.size(); ++i) {
      float* dst = tokens.raw() + refined_[i] * cfg_.dim;
      const float* src = fine.raw() + i * cfg_.dim;
      for (std::size_t j = 0; j < cfg_.dim; ++j) dst[j] += src[j];
    }
  }

  // Positional embedding and transformer mixing.
  Tensor seq = tokens.reshaped({batch_, num_patches_, cfg_.dim});
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = 0; t < num_patches_; ++t) {
      float* row = seq.raw() + (b * num_patches_ + t) * cfg_.dim;
      const float* pos = pos_embed_.value.raw() + t * cfg_.dim;
      for (std::size_t j = 0; j < cfg_.dim; ++j) row[j] += pos[j];
    }
  }
  for (auto& block : blocks_) seq = block->forward(seq);

  // Per-patch linear decode, then un-patchify.
  const Tensor dec = decode_.forward(
      seq.reshaped({batch_ * num_patches_, cfg_.dim}));
  const std::size_t Co = cfg_.out_channels;
  Tensor out({batch_, Co, E, E, E});
  const std::size_t opf = Co * patch_voxels_;
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t pz = 0; pz < ppa; ++pz) {
      for (std::size_t py = 0; py < ppa; ++py) {
        for (std::size_t px = 0; px < ppa; ++px) {
          const std::size_t pid = (pz * ppa + py) * ppa + px;
          const float* row = dec.raw() + (b * num_patches_ + pid) * opf;
          std::size_t o = 0;
          for (std::size_t c = 0; c < Co; ++c) {
            for (std::size_t z = 0; z < P; ++z) {
              for (std::size_t y = 0; y < P; ++y) {
                for (std::size_t x = 0; x < P; ++x) {
                  out[(((b * Co + c) * E + pz * P + z) * E + py * P + y) * E +
                      px * P + x] = row[o++];
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

Tensor FoundationModel::backward(const Tensor& grad_output) {
  const std::size_t C = cfg_.in_channels;
  const std::size_t Co = cfg_.out_channels;
  const std::size_t E = cfg_.edge;
  const std::size_t P = cfg_.patch;
  const std::size_t ppa = patches_per_axis_;
  const std::size_t opf = Co * patch_voxels_;

  // Re-patchify the output gradient.
  Tensor d_dec({batch_ * num_patches_, opf});
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t pz = 0; pz < ppa; ++pz) {
      for (std::size_t py = 0; py < ppa; ++py) {
        for (std::size_t px = 0; px < ppa; ++px) {
          const std::size_t pid = (pz * ppa + py) * ppa + px;
          float* row = d_dec.raw() + (b * num_patches_ + pid) * opf;
          std::size_t o = 0;
          for (std::size_t c = 0; c < Co; ++c) {
            for (std::size_t z = 0; z < P; ++z) {
              for (std::size_t y = 0; y < P; ++y) {
                for (std::size_t x = 0; x < P; ++x) {
                  row[o++] = grad_output[(((b * Co + c) * E + pz * P + z) * E +
                                          py * P + y) * E + px * P + x];
                }
              }
            }
          }
        }
      }
    }
  }

  Tensor g = decode_.backward(d_dec)
                 .reshaped({batch_, num_patches_, cfg_.dim});
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = 0; t < num_patches_; ++t) {
      const float* row = g.raw() + (b * num_patches_ + t) * cfg_.dim;
      float* pg = pos_embed_.grad.raw() + t * cfg_.dim;
      for (std::size_t j = 0; j < cfg_.dim; ++j) pg[j] += row[j];
    }
  }
  const Tensor g_rows = g.reshaped({batch_ * num_patches_, cfg_.dim});

  // Fine branch gradient for refined rows only.
  if (!refined_.empty()) {
    Tensor g_fine({refined_.size(), cfg_.dim});
    for (std::size_t i = 0; i < refined_.size(); ++i) {
      std::copy_n(g_rows.raw() + refined_[i] * cfg_.dim, cfg_.dim,
                  g_fine.raw() + i * cfg_.dim);
    }
    // fine_embed_'s cache still holds the gathered rows from forward().
    (void)fine_embed_.backward(g_fine);
  }

  // Coarse branch over all rows; input gradient is discarded — the model
  // is the top of the graph (inputs are data, not activations).
  (void)coarse_embed_.backward(g_rows);
  return Tensor({batch_, C, E, E, E});
}

}  // namespace sickle::ml
