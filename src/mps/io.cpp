#include "mps/io.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace tt::mps {

namespace {

using symm::BlockTensor;
using symm::Dir;
using symm::Index;
using symm::QN;

// Largest sector dimension a stream may declare. Real bonds are far smaller;
// the cap keeps every sum and product of dimensions inside index_t.
constexpr index_t kMaxSectorDim = (index_t{1} << 31) - 1;

// Largest |charge| and tensor order a stream may declare: together they keep
// every charge sum of a block key inside int.
constexpr int kMaxCharge = 1 << 24;
constexpr int kMaxOrder = 64;

// Bytes left in the stream: no stored block can hold more values than that,
// since every value takes several characters. Unbounded when the stream
// cannot seek.
std::uint64_t bytes_left(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return UINT64_MAX;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return UINT64_MAX;
  return static_cast<std::uint64_t>(end - here);
}

void write_qn(std::ostream& os, const QN& q) {
  os << q.rank();
  for (int c = 0; c < q.rank(); ++c) os << " " << q[c];
}

QN read_qn(std::istream& is) {
  int rank = 0;
  is >> rank;
  TT_CHECK(is && rank >= 0 && rank <= QN::kMaxRank, "corrupt QN rank");
  if (rank == 0) return QN::zero(0);
  int q0 = 0, q1 = 0;
  is >> q0;
  TT_CHECK(is, "truncated stream inside QN charges");
  TT_CHECK(q0 >= -kMaxCharge && q0 <= kMaxCharge, "corrupt QN charge " << q0);
  if (rank == 1) return QN(q0);
  is >> q1;
  TT_CHECK(is, "truncated stream inside QN charges");
  TT_CHECK(q1 >= -kMaxCharge && q1 <= kMaxCharge, "corrupt QN charge " << q1);
  return QN(q0, q1);
}

void write_index(std::ostream& os, const Index& idx) {
  os << (idx.dir() == Dir::In ? "I" : "O") << " " << idx.num_sectors();
  for (const auto& s : idx.sectors()) {
    os << " ";
    write_qn(os, s.qn);
    os << " " << s.dim;
  }
  os << "\n";
}

Index read_index(std::istream& is) {
  std::string dir;
  int nsec = 0;
  is >> dir >> nsec;
  TT_CHECK(is && (dir == "I" || dir == "O") && nsec > 0, "corrupt index header");
  std::vector<symm::Sector> sectors;
  for (int s = 0; s < nsec; ++s) {
    QN q = read_qn(is);
    index_t dim = 0;
    is >> dim;
    TT_CHECK(is && dim > 0 && dim <= kMaxSectorDim, "corrupt index sector dimension");
    sectors.push_back({q, dim});
  }
  TT_CHECK(is, "corrupt index sectors");
  return Index(sectors, dir == "I" ? Dir::In : Dir::Out);
}

void write_block_tensor(std::ostream& os, const BlockTensor& t) {
  os << "TENSOR " << t.order() << " ";
  write_qn(os, t.flux());
  os << "\n";
  for (int m = 0; m < t.order(); ++m) write_index(os, t.index(m));
  os << t.num_blocks() << "\n";
  for (const auto& [key, blk] : t.blocks()) {
    for (int v : key) os << v << " ";
    os << "\n";
    for (index_t i = 0; i < blk.size(); ++i) {
      if (i) os << " ";
      write_real_hex(os, blk[i]);
    }
    os << "\n";
  }
}

BlockTensor read_block_tensor(std::istream& is) {
  std::string tag;
  int order = 0;
  is >> tag >> order;
  TT_CHECK(is && tag == "TENSOR" && order >= 0 && order <= kMaxOrder,
           "corrupt tensor header");
  QN flux = read_qn(is);
  std::vector<Index> indices;
  for (int m = 0; m < order; ++m) indices.push_back(read_index(is));
  BlockTensor t(indices, flux);
  int nblocks = 0;
  is >> nblocks;
  TT_CHECK(is && nblocks >= 0, "corrupt block count");
  for (int b = 0; b < nblocks; ++b) {
    symm::BlockKey key(static_cast<std::size_t>(order));
    for (int m = 0; m < order; ++m) is >> key[static_cast<std::size_t>(m)];
    TT_CHECK(is, "corrupt block key");
    TT_CHECK(t.key_allowed(key), "block key violates charge conservation");
    // Bound the block by the stream before allocating it: a mutated
    // dimension must not turn into a huge (or overflowing) allocation.
    const std::uint64_t max_values = bytes_left(is) / 2;
    std::uint64_t values = 1;
    for (index_t d : t.block_shape(key)) {
      TT_CHECK(static_cast<std::uint64_t>(d) <= max_values / values,
               "block of stored tensor exceeds the stream's remaining bytes");
      values *= static_cast<std::uint64_t>(d);
    }
    tensor::DenseTensor& blk = t.block(key);
    for (index_t i = 0; i < blk.size(); ++i) blk[i] = read_real_hex(is);
  }
  return t;
}

void check_phys_match(const BlockTensor& t, int mode, const SiteSet& sites) {
  TT_CHECK(t.index(mode).sectors() == sites.phys().sectors(),
           "stored tensor's physical leg does not match the site set");
}

// Reads "<magic> <version>" and rejects truncation, wrong magic, and
// unsupported versions with three distinct errors — a reader pointed at the
// wrong kind of file (or a file from a future format) says so instead of
// failing deeper in with a misleading "corrupt" message.
void read_header(std::istream& is, const char* expect_magic, int expect_version) {
  std::string magic;
  is >> magic;
  TT_CHECK(is, "truncated stream: missing " << expect_magic << " header");
  TT_CHECK(magic == expect_magic, "bad magic '" << magic << "': not a "
                                                << expect_magic << " stream");
  int version = 0;
  is >> version;
  TT_CHECK(is, "truncated stream: missing " << expect_magic << " version");
  TT_CHECK(version == expect_version,
           "unsupported " << expect_magic << " version " << version
                          << " (reader understands version " << expect_version
                          << ")");
}

}  // namespace

void write_real_hex(std::ostream& os, real_t v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  os << buf;
}

real_t read_real_hex(std::istream& is) {
  std::string tok;
  is >> tok;
  TT_CHECK(is, "truncated stream: missing numeric value");
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  TT_CHECK(end == tok.c_str() + tok.size() && !tok.empty(),
           "corrupt numeric value '" << tok << "'");
  return v;
}

void write_mps(std::ostream& os, const Mps& psi) {
  os << "TTMPS 1\n" << psi.size() << " " << psi.sites()->qn_rank() << "\n";
  for (int j = 0; j < psi.size(); ++j) write_block_tensor(os, psi.site(j));
}

Mps read_mps(std::istream& is, SiteSetPtr sites) {
  read_header(is, "TTMPS", 1);
  int n = 0, rank = 0;
  is >> n >> rank;
  TT_CHECK(is, "truncated stream: missing TTMPS size header");
  TT_CHECK(sites && sites->size() == n,
           "stream holds " << n << " sites, site set has "
                           << (sites ? sites->size() : 0));
  TT_CHECK(sites->qn_rank() == rank, "QN rank mismatch");

  // Build a scaffold state, then replace every tensor.
  Mps psi = Mps::product_state(sites, std::vector<int>(static_cast<std::size_t>(n), 0));
  for (int j = 0; j < n; ++j) {
    BlockTensor t = read_block_tensor(is);
    check_phys_match(t, 1, *sites);
    psi.set_site(j, std::move(t));
  }
  psi.check_consistency();
  return psi;
}

void write_mpo(std::ostream& os, const Mpo& h) {
  os << "TTMPO 1\n" << h.size() << " " << h.sites()->qn_rank() << "\n";
  for (int j = 0; j < h.size(); ++j) write_block_tensor(os, h.site(j));
}

Mpo read_mpo(std::istream& is, SiteSetPtr sites) {
  read_header(is, "TTMPO", 1);
  int n = 0, rank = 0;
  is >> n >> rank;
  TT_CHECK(is, "truncated stream: missing TTMPO size header");
  TT_CHECK(sites && sites->size() == n, "MPO site count mismatch");
  TT_CHECK(sites->qn_rank() == rank, "QN rank mismatch");
  std::vector<BlockTensor> tensors;
  for (int j = 0; j < n; ++j) {
    tensors.push_back(read_block_tensor(is));
    check_phys_match(tensors.back(), 1, *sites);
  }
  return Mpo(std::move(sites), std::move(tensors));  // validates consistency
}

void save_mps(const std::string& path, const Mps& psi) {
  std::ofstream os(path);
  TT_CHECK(os.good(), "cannot open '" << path << "' for writing");
  write_mps(os, psi);
}

Mps load_mps(const std::string& path, SiteSetPtr sites) {
  std::ifstream is(path);
  TT_CHECK(is.good(), "cannot open '" << path << "' for reading");
  return read_mps(is, std::move(sites));
}

void save_mpo(const std::string& path, const Mpo& h) {
  std::ofstream os(path);
  TT_CHECK(os.good(), "cannot open '" << path << "' for writing");
  write_mpo(os, h);
}

Mpo load_mpo(const std::string& path, SiteSetPtr sites) {
  std::ifstream is(path);
  TT_CHECK(is.good(), "cannot open '" << path << "' for reading");
  return read_mpo(is, std::move(sites));
}

}  // namespace tt::mps
