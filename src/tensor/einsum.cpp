#include "tensor/einsum.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "linalg/gemm.hpp"
#include "support/error.hpp"

namespace tt::tensor {

namespace {

bool contains_char(const std::string& s, char c) {
  return s.find(c) != std::string::npos;
}

void check_unique_labels(const std::string& s, const char* which) {
  for (std::size_t i = 0; i < s.size(); ++i)
    for (std::size_t j = i + 1; j < s.size(); ++j)
      TT_CHECK(s[i] != s[j], "repeated label '" << s[i] << "' in " << which
                                                << " operand (traces unsupported)");
}

// Shape-dependent half of the plan: the matricized GEMM dims, with the
// operand orders and contracted extents checked against the lowering.
struct GemmDims {
  index_t m = 1, n = 1, k = 1;
};

GemmDims gemm_dims(const EinsumLowering& low, const std::vector<index_t>& sa,
                   const std::vector<index_t>& sb) {
  TT_CHECK(low.perm_a.size() == sa.size(),
           "einsum: spec expects order " << low.perm_a.size()
                                         << " for the first operand, got " << sa.size());
  TT_CHECK(low.perm_b.size() == sb.size(),
           "einsum: spec expects order " << low.perm_b.size()
                                         << " for the second operand, got " << sb.size());
  GemmDims d;
  for (int mode : low.free_a) d.m *= sa[static_cast<std::size_t>(mode)];
  for (int mode : low.free_b) d.n *= sb[static_cast<std::size_t>(mode)];
  for (std::size_t t = 0; t < low.con_a.size(); ++t) {
    const index_t da = sa[static_cast<std::size_t>(low.con_a[t])];
    const index_t db = sb[static_cast<std::size_t>(low.con_b[t])];
    TT_CHECK(da == db, "einsum dimension mismatch on contracted mode pair ("
                           << low.con_a[t] << "," << low.con_b[t] << "): " << da << " vs "
                           << db);
    d.k *= da;
  }
  return d;
}

// Concatenation of two mode lists (the matricized [rows, cols] orders).
std::vector<int> concat(const std::vector<int>& x, const std::vector<int>& y) {
  std::vector<int> out = x;
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

bool is_identity(const std::vector<int>& perm) {
  for (std::size_t i = 0; i < perm.size(); ++i)
    if (perm[i] != static_cast<int>(i)) return false;
  return true;
}

// Row-major linearization helpers for sparse entries. For each nonzero, split
// its flat index into per-mode indices and re-linearize selected modes.
struct ModeSplit {
  std::vector<index_t> strides;  // input strides per mode
  std::vector<index_t> dims;
};

ModeSplit make_split(const std::vector<index_t>& shape) {
  ModeSplit s;
  s.dims = shape;
  s.strides.assign(shape.size(), 1);
  for (int i = static_cast<int>(shape.size()) - 2; i >= 0; --i)
    s.strides[static_cast<std::size_t>(i)] =
        s.strides[static_cast<std::size_t>(i + 1)] * shape[static_cast<std::size_t>(i + 1)];
  return s;
}

// Linearized key over a subset of modes, weighted by arbitrary strides.
index_t relinearize(index_t flat, const ModeSplit& split, const std::vector<int>& modes,
                    const std::vector<index_t>& weights) {
  index_t key = 0;
  for (std::size_t t = 0; t < modes.size(); ++t) {
    const auto mode = static_cast<std::size_t>(modes[t]);
    const index_t idx = (flat / split.strides[mode]) % split.dims[mode];
    key += idx * weights[t];
  }
  return key;
}

// Row-major weights for a selected list of modes.
std::vector<index_t> packed_weights(const std::vector<index_t>& shape,
                                    const std::vector<int>& modes) {
  std::vector<index_t> w(modes.size(), 1);
  for (int t = static_cast<int>(modes.size()) - 2; t >= 0; --t)
    w[static_cast<std::size_t>(t)] =
        w[static_cast<std::size_t>(t + 1)] *
        shape[static_cast<std::size_t>(modes[static_cast<std::size_t>(t + 1)])];
  return w;
}

// Weights that map each selected mode straight to its stride in the output
// tensor (used to build final C flats without an intermediate permute).
std::vector<index_t> output_weights(const EinsumSpec& spec, const std::string& op_labels,
                                    const std::vector<int>& modes,
                                    const std::vector<index_t>& c_strides) {
  std::vector<index_t> w(modes.size(), 0);
  for (std::size_t t = 0; t < modes.size(); ++t) {
    const char l = op_labels[static_cast<std::size_t>(modes[t])];
    const auto pos = spec.c.find(l);
    TT_ASSERT(pos != std::string::npos, "free label missing from output");
    w[t] = c_strides[pos];
  }
  return w;
}

std::vector<index_t> shape_of_output(const EinsumSpec& spec, const std::vector<index_t>& sa,
                                     const std::vector<index_t>& sb) {
  std::vector<index_t> cs(spec.c.size());
  for (std::size_t i = 0; i < spec.c.size(); ++i) {
    const char l = spec.c[i];
    auto pa = spec.a.find(l);
    cs[i] = (pa != std::string::npos) ? sa[pa] : sb[spec.b.find(l)];
  }
  return cs;
}

std::vector<index_t> strides_for(const std::vector<index_t>& shape) {
  std::vector<index_t> s(shape.size(), 1);
  for (int i = static_cast<int>(shape.size()) - 2; i >= 0; --i)
    s[static_cast<std::size_t>(i)] =
        s[static_cast<std::size_t>(i + 1)] * shape[static_cast<std::size_t>(i + 1)];
  return s;
}

}  // namespace

EinsumSpec EinsumSpec::parse(const std::string& spec) {
  const auto arrow = spec.find("->");
  TT_CHECK(arrow != std::string::npos, "einsum spec missing '->': " << spec);
  const std::string lhs = spec.substr(0, arrow);
  EinsumSpec out;
  out.c = spec.substr(arrow + 2);
  const auto comma = lhs.find(',');
  TT_CHECK(comma != std::string::npos, "einsum spec must have two operands: " << spec);
  out.a = lhs.substr(0, comma);
  out.b = lhs.substr(comma + 1);
  TT_CHECK(out.b.find(',') == std::string::npos,
           "einsum supports exactly two operands: " << spec);
  check_unique_labels(out.a, "first");
  check_unique_labels(out.b, "second");
  check_unique_labels(out.c, "output");
  return out;
}

EinsumLowering lower_einsum(const EinsumSpec& spec) {
  EinsumLowering low;
  std::string tmp_labels;  // GEMM output order: free(A) then free(B)
  for (std::size_t i = 0; i < spec.a.size(); ++i) {
    const char l = spec.a[i];
    const bool in_b = contains_char(spec.b, l);
    const bool in_c = contains_char(spec.c, l);
    TT_CHECK(in_b != in_c, "einsum label '" << l << "' must appear in exactly one of the "
                                            << "second operand or the output");
    if (in_c) {
      low.free_a.push_back(static_cast<int>(i));
      tmp_labels.push_back(l);
    } else {
      low.con_a.push_back(static_cast<int>(i));
      low.con_b.push_back(static_cast<int>(spec.b.find(l)));
    }
  }
  for (std::size_t i = 0; i < spec.b.size(); ++i) {
    const char l = spec.b[i];
    if (contains_char(spec.a, l)) continue;  // contracted, already lowered
    TT_CHECK(contains_char(spec.c, l), "einsum label '"
                                           << l << "' of the second operand is neither "
                                           << "contracted nor in the output");
    low.free_b.push_back(static_cast<int>(i));
    tmp_labels.push_back(l);
  }
  TT_CHECK(spec.c.size() == tmp_labels.size(),
           "einsum output '" << spec.c << "' does not cover the free labels '"
                             << tmp_labels << "'");
  low.perm_c.resize(spec.c.size());
  for (std::size_t i = 0; i < spec.c.size(); ++i) {
    const auto pos = tmp_labels.find(spec.c[i]);
    TT_CHECK(pos != std::string::npos,
             "einsum output label '" << spec.c[i] << "' not produced by inputs");
    low.perm_c[i] = static_cast<int>(pos);
  }
  low.c_identity = is_identity(low.perm_c);

  // Operand routes: when an operand already stores its two groups contiguous
  // and in order — directly or with the groups swapped — GEMM takes the
  // buffer as-is with the matching trans flag instead of a permuted copy.
  low.perm_a = concat(low.free_a, low.con_a);
  low.perm_b = concat(low.con_b, low.free_b);
  if (is_identity(low.perm_a))
    low.route_a = OperandRoute::kAsIs;
  else if (is_identity(concat(low.con_a, low.free_a)))
    low.route_a = OperandRoute::kTranspose;  // stored op(A)ᵀ = [con_a, free_a]
  else
    low.route_a = OperandRoute::kPermute;
  if (is_identity(low.perm_b))
    low.route_b = OperandRoute::kAsIs;
  else if (is_identity(concat(low.free_b, low.con_b)))
    low.route_b = OperandRoute::kTranspose;  // stored op(B)ᵀ = [free_b, con_b]
  else
    low.route_b = OperandRoute::kPermute;
  return low;
}

EinsumLowering lower_einsum(const std::string& spec) {
  return lower_einsum(EinsumSpec::parse(spec));
}

std::vector<index_t> gemm_output_shape(const EinsumLowering& low,
                                       const std::vector<index_t>& sa,
                                       const std::vector<index_t>& sb) {
  std::vector<index_t> shape;
  shape.reserve(low.free_a.size() + low.free_b.size());
  for (int mode : low.free_a) shape.push_back(sa[static_cast<std::size_t>(mode)]);
  for (int mode : low.free_b) shape.push_back(sb[static_cast<std::size_t>(mode)]);
  return shape;
}

namespace {

// Per-thread operand scratch for kPermute routes (one buffer per operand
// slot). A buffer grows to the largest operand its thread has permuted, up to
// kRetainWords (2 MB); a larger operand gets a one-off buffer released on
// return, so the scratch a thread keeps stays bounded.
constexpr std::size_t kRetainWords = std::size_t{1} << 18;

struct PermuteScratch {
  std::vector<real_t> kept[2];
};

const real_t* permuted_operand(const DenseTensor& x, const std::vector<int>& perm,
                               int slot, std::vector<real_t>& oneoff) {
  thread_local PermuteScratch scratch;
  const auto words = static_cast<std::size_t>(x.size());
  std::vector<real_t>* buf = &oneoff;
  if (words <= kRetainWords) {
    buf = &scratch.kept[slot];
    if (buf->size() < words) buf->resize(words);
  } else {
    buf->resize(words);
  }
  permute_into(x.data(), x.shape(), perm, buf->data());
  return buf->data();
}

}  // namespace

void einsum_accumulate(const EinsumLowering& low, const DenseTensor& a,
                       const DenseTensor& b, DenseTensor& c, EinsumStats* stats) {
  const GemmDims d = gemm_dims(low, a.shape(), b.shape());
  const std::size_t nfa = low.free_a.size();
  TT_CHECK(c.order() == static_cast<int>(nfa + low.free_b.size()),
           "einsum_accumulate: output has order "
               << c.order() << ", expected " << nfa + low.free_b.size());
  for (std::size_t i = 0; i < nfa; ++i)
    TT_CHECK(c.dim(static_cast<int>(i)) == a.dim(low.free_a[i]),
             "einsum_accumulate: output mode " << i << " does not match operand A");
  for (std::size_t i = 0; i < low.free_b.size(); ++i)
    TT_CHECK(c.dim(static_cast<int>(nfa + i)) == b.dim(low.free_b[i]),
             "einsum_accumulate: output mode " << nfa + i << " does not match operand B");

  double permuted = 0.0;
  std::vector<real_t> oneoff_a, oneoff_b;  // stay empty unless an operand is huge
  const real_t* ap = a.data();
  const real_t* bp = b.data();
  if (low.route_a == OperandRoute::kPermute) {
    ap = permuted_operand(a, low.perm_a, 0, oneoff_a);
    permuted += static_cast<double>(a.size());
  }
  if (low.route_b == OperandRoute::kPermute) {
    bp = permuted_operand(b, low.perm_b, 1, oneoff_b);
    permuted += static_cast<double>(b.size());
  }
  const bool transa = low.route_a == OperandRoute::kTranspose;
  const bool transb = low.route_b == OperandRoute::kTranspose;
  linalg::gemm_raw(transa, transb, d.m, d.n, d.k, 1.0, ap, bp, 1.0, c.data());

  if (stats) {
    stats->flops += linalg::gemm_flops(d.m, d.n, d.k);
    stats->permuted_words += permuted;
    stats->lowered_transposes += (transa ? 1 : 0) + (transb ? 1 : 0);
    stats->m = d.m;
    stats->n = d.n;
    stats->k = d.k;
  }
}

DenseTensor einsum(const std::string& spec, const DenseTensor& a, const DenseTensor& b,
                   EinsumStats* stats) {
  const EinsumLowering low = lower_einsum(spec);
  DenseTensor tmp(gemm_output_shape(low, a.shape(), b.shape()));
  einsum_accumulate(low, a, b, tmp, stats);
  if (low.c_identity) return tmp;
  DenseTensor out = tmp.permuted(low.perm_c);
  if (stats) stats->permuted_words += static_cast<double>(out.size());
  return out;
}

SparseTensor einsum_ss(const std::string& spec_str, const SparseTensor& a,
                       const SparseTensor& b, EinsumStats* stats,
                       const SparseTensor* out_mask) {
  const EinsumSpec spec = EinsumSpec::parse(spec_str);
  const EinsumLowering p = lower_einsum(spec);
  const GemmDims d = gemm_dims(p, a.shape(), b.shape());
  const std::vector<index_t> c_shape = shape_of_output(spec, a.shape(), b.shape());
  const std::vector<index_t> c_strides = strides_for(c_shape);
  if (out_mask)
    TT_CHECK(out_mask->shape() == c_shape, "einsum_ss output mask shape mismatch");

  const ModeSplit sa = make_split(a.shape());
  const ModeSplit sb = make_split(b.shape());
  const std::vector<index_t> ka_w = packed_weights(a.shape(), p.con_a);
  // Contracted key weights for B must match A's ordering/dims (same labels).
  std::vector<index_t> kb_w(p.con_b.size(), 1);
  for (int t = static_cast<int>(p.con_b.size()) - 2; t >= 0; --t)
    kb_w[static_cast<std::size_t>(t)] =
        kb_w[static_cast<std::size_t>(t + 1)] *
        a.shape()[static_cast<std::size_t>(p.con_a[static_cast<std::size_t>(t + 1)])];
  const std::vector<index_t> ra_w = output_weights(spec, spec.a, p.free_a, c_strides);
  const std::vector<index_t> cb_w = output_weights(spec, spec.b, p.free_b, c_strides);

  struct Entry {
    index_t key;      // contracted-mode linearization
    index_t contrib;  // contribution to the output flat index
    real_t val;
  };
  auto gather = [](const SparseTensor& t, const ModeSplit& split,
                   const std::vector<int>& kmodes, const std::vector<index_t>& kw,
                   const std::vector<int>& fmodes, const std::vector<index_t>& fw) {
    std::vector<Entry> es;
    es.reserve(static_cast<std::size_t>(t.nnz()));
    auto idx = t.indices();
    auto val = t.values();
    for (std::size_t i = 0; i < idx.size(); ++i) {
      Entry e;
      e.key = relinearize(idx[i], split, kmodes, kw);
      e.contrib = relinearize(idx[i], split, fmodes, fw);
      e.val = val[i];
      es.push_back(e);
    }
    std::sort(es.begin(), es.end(),
              [](const Entry& x, const Entry& y) { return x.key < y.key; });
    return es;
  };

  const std::vector<Entry> ea = gather(a, sa, p.con_a, ka_w, p.free_a, ra_w);
  const std::vector<Entry> eb = gather(b, sb, p.con_b, kb_w, p.free_b, cb_w);

  // Merge-join matching contracted keys; one (start, end) group pair per key.
  struct Group {
    std::size_t a0, a1, b0, b1;
  };
  std::vector<Group> groups;
  {
    std::size_t i = 0, j = 0;
    while (i < ea.size() && j < eb.size()) {
      if (ea[i].key < eb[j].key) {
        ++i;
      } else if (eb[j].key < ea[i].key) {
        ++j;
      } else {
        const index_t key = ea[i].key;
        Group g{i, i, j, j};
        while (g.a1 < ea.size() && ea[g.a1].key == key) ++g.a1;
        while (g.b1 < eb.size() && eb[g.b1].key == key) ++g.b1;
        groups.push_back(g);
        i = g.a1;
        j = g.b1;
      }
    }
  }

  SparseTensor out(c_shape);
  double flops = 0.0;
  // tt-lint: allow(ordered-iteration) accumulator only; drained below via a flat-sorted vector, never iterated in hash order
  std::unordered_map<index_t, real_t> acc;
  for (const Group& gr : groups) {
    for (std::size_t ia = gr.a0; ia < gr.a1; ++ia) {
      for (std::size_t ib = gr.b0; ib < gr.b1; ++ib) {
        const index_t flat = ea[ia].contrib + eb[ib].contrib;
        if (out_mask && !out_mask->contains(flat)) continue;
        acc[flat] += ea[ia].val * eb[ib].val;
        flops += 2.0;
      }
    }
  }
  // Drain in ascending flat order: iterating the unordered_map directly would
  // feed out.add() in hash-dependent order — exactly the nondeterminism the
  // ordered-iteration lint rule exists to catch.
  // tt-lint: allow(ordered-iteration) copied out then sorted by flat index before any order-sensitive use
  std::vector<std::pair<index_t, real_t>> drain(acc.cbegin(), acc.cend());
  std::sort(drain.begin(), drain.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [flat, v] : drain) out.add(flat, v);
  out.finalize();
  if (stats) {
    stats->flops += flops;
    stats->m = d.m;
    stats->n = d.n;
    stats->k = d.k;
  }
  return out;
}

DenseTensor einsum_sd(const std::string& spec_str, const SparseTensor& a,
                      const DenseTensor& b, EinsumStats* stats) {
  const EinsumSpec spec = EinsumSpec::parse(spec_str);
  const EinsumLowering p = lower_einsum(spec);
  const GemmDims d = gemm_dims(p, a.shape(), b.shape());

  // Dense operand to [contracted, free_b] matrix form.
  const DenseTensor* bp = &b;
  DenseTensor b_work;
  double permuted = 0.0;
  if (!is_identity(p.perm_b)) {
    b_work = b.permuted(p.perm_b);
    bp = &b_work;
    permuted += static_cast<double>(b.size());
  }

  const ModeSplit sa = make_split(a.shape());
  const std::vector<index_t> row_w = packed_weights(a.shape(), p.free_a);
  const std::vector<index_t> k_w = packed_weights(a.shape(), p.con_a);

  struct Entry {
    index_t row, key;
    real_t val;
  };
  std::vector<Entry> es;
  es.reserve(static_cast<std::size_t>(a.nnz()));
  {
    auto idx = a.indices();
    auto val = a.values();
    for (std::size_t i = 0; i < idx.size(); ++i)
      es.push_back({relinearize(idx[i], sa, p.free_a, row_w),
                    relinearize(idx[i], sa, p.con_a, k_w), val[i]});
  }
  std::sort(es.begin(), es.end(), [](const Entry& x, const Entry& y) {
    return x.row < y.row || (x.row == y.row && x.key < y.key);
  });
  // Row group boundaries: each group accumulates into one output row.
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < es.size(); ++i)
    if (i == 0 || es[i].row != es[i - 1].row) starts.push_back(i);
  starts.push_back(es.size());

  DenseTensor tmp(gemm_output_shape(p, a.shape(), b.shape()));
  const index_t n = d.n;
  double flops = 0.0;
  const std::size_t ngroups = starts.empty() ? 0 : starts.size() - 1;
  for (std::size_t gi = 0; gi < ngroups; ++gi) {
    real_t* crow = tmp.data() + es[starts[gi]].row * n;
    for (std::size_t e = starts[gi]; e < starts[gi + 1]; ++e) {
      const real_t* brow = bp->data() + es[e].key * n;
      const real_t v = es[e].val;
      for (index_t j = 0; j < n; ++j) crow[j] += v * brow[j];
      flops += 2.0 * static_cast<double>(n);
    }
  }

  DenseTensor out;
  if (p.c_identity) {
    out = std::move(tmp);
  } else {
    out = tmp.permuted(p.perm_c);
    permuted += static_cast<double>(out.size());
  }
  if (stats) {
    stats->flops += flops;
    stats->permuted_words += permuted;
    stats->m = d.m;
    stats->n = d.n;
    stats->k = d.k;
  }
  return out;
}

DenseTensor einsum_ds(const std::string& spec_str, const DenseTensor& a,
                      const SparseTensor& b, EinsumStats* stats) {
  const EinsumSpec spec = EinsumSpec::parse(spec_str);
  const EinsumLowering p = lower_einsum(spec);
  const GemmDims d = gemm_dims(p, a.shape(), b.shape());

  // Dense operand to [free_a, contracted] matrix form.
  const DenseTensor* apm = &a;
  DenseTensor a_work;
  double permuted = 0.0;
  if (!is_identity(p.perm_a)) {
    a_work = a.permuted(p.perm_a);
    apm = &a_work;
    permuted += static_cast<double>(a.size());
  }

  const ModeSplit sb = make_split(b.shape());
  // B's contracted key must be linearized with the same mode order/dims as A's
  // trailing contracted modes.
  std::vector<index_t> kb_w(p.con_b.size(), 1);
  for (int t = static_cast<int>(p.con_b.size()) - 2; t >= 0; --t)
    kb_w[static_cast<std::size_t>(t)] =
        kb_w[static_cast<std::size_t>(t + 1)] *
        a.shape()[static_cast<std::size_t>(p.con_a[static_cast<std::size_t>(t + 1)])];
  const std::vector<index_t> col_w = packed_weights(b.shape(), p.free_b);

  struct Entry {
    index_t key, col;
    real_t val;
  };
  std::vector<Entry> es;
  es.reserve(static_cast<std::size_t>(b.nnz()));
  {
    auto idx = b.indices();
    auto val = b.values();
    for (std::size_t i = 0; i < idx.size(); ++i)
      es.push_back({relinearize(idx[i], sb, p.con_b, kb_w),
                    relinearize(idx[i], sb, p.free_b, col_w), val[i]});
  }
  std::sort(es.begin(), es.end(), [](const Entry& x, const Entry& y) {
    return x.key < y.key || (x.key == y.key && x.col < y.col);
  });

  DenseTensor tmp(gemm_output_shape(p, a.shape(), b.shape()));
  const index_t m = d.m, n = d.n, k = d.k;
  double flops = 0.0;
  for (index_t r = 0; r < m; ++r) {
    const real_t* arow = apm->data() + r * k;
    real_t* crow = tmp.data() + r * n;
    for (const Entry& e : es) {
      crow[e.col] += arow[e.key] * e.val;
    }
    flops += 2.0 * static_cast<double>(es.size());
  }

  DenseTensor out;
  if (p.c_identity) {
    out = std::move(tmp);
  } else {
    out = tmp.permuted(p.perm_c);
    permuted += static_cast<double>(out.size());
  }
  if (stats) {
    stats->flops += flops;
    stats->permuted_words += permuted;
    stats->m = d.m;
    stats->n = d.n;
    stats->k = d.k;
  }
  return out;
}

}  // namespace tt::tensor
