// Deterministic mutation fuzzing of every parser that reads bytes from
// outside the process: the scheduler's task and result frame payloads
// (runtime/task_frames.hpp over rt::WireReader), the mps::io text stream,
// and the checkpoint manifest. A seeded tt::Rng drives bit flips, byte
// overwrites, truncation, extension and length-prefix edits over a valid
// input of each kind. Every mutant must either parse or throw tt::Error —
// never crash, trip a sanitizer, throw anything else, or allocate more than
// the input could describe (the largest single allocation is tracked through
// a replaced operator new).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "dmrg/checkpoint.hpp"
#include "models/spin_half.hpp"
#include "mps/io.hpp"
#include "mps/mps.hpp"
#include "runtime/task_frames.hpp"
#include "support/rng.hpp"
#include "symm/block_ops.hpp"

namespace {

// Largest single allocation while `g_tracking` is set.
std::atomic<bool> g_tracking{false};
std::atomic<std::size_t> g_largest{0};

void note_allocation(std::size_t n) {
  if (!g_tracking.load(std::memory_order_relaxed)) return;
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (n > seen &&
         !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
}

}  // namespace

// Replaceable global allocation functions: the array and nothrow forms route
// through these. The deletes stay out of line so the compiler never pairs an
// inlined free() with a new-expression it can see.
void* operator new(std::size_t n) {
  note_allocation(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace fs = std::filesystem;
using tt::Rng;
using Bytes = std::vector<std::byte>;

constexpr int kMutantsPerInput = 1500;

// Allocation headroom a parser may use beyond the bytes it was given:
// fixed-size scaffolding (site sets, lowered specs, stream buffers).
constexpr std::size_t kAllocSlack = std::size_t{1} << 16;

enum class Mutation { kBitFlip, kOverwrite, kTruncate, kExtend, kLengthPrefix };
constexpr int kNumMutations = 5;

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kBitFlip: return "bit flip";
    case Mutation::kOverwrite: return "byte overwrite";
    case Mutation::kTruncate: return "truncation";
    case Mutation::kExtend: return "extension";
    case Mutation::kLengthPrefix: return "length-prefix edit";
  }
  return "?";
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.integer(0, static_cast<std::int64_t>(n) - 1));
}

std::byte random_byte(Rng& rng) {
  return static_cast<std::byte>(static_cast<unsigned char>(rng.integer(0, 255)));
}

// Values a corrupt length prefix or count plausibly takes: off by one, zero,
// just past the field caps, and the extremes.
std::uint64_t interesting_count(Rng& rng, std::uint64_t old, std::size_t input_bytes) {
  const std::uint64_t choices[] = {0,
                                   1,
                                   old - 1,
                                   old + 1,
                                   2 * old,
                                   input_bytes,
                                   input_bytes / 8 + 1,
                                   (std::uint64_t{1} << 27) + 1,
                                   std::uint64_t{1} << 30,
                                   (std::uint64_t{1} << 30) + 1,
                                   std::uint64_t{1} << 31,
                                   std::uint64_t{1} << 32,
                                   std::uint64_t{1} << 62,
                                   ~std::uint64_t{0}};
  return choices[pick(rng, std::size(choices))];
}

// Offsets of the 8-byte little-endian words of a binary message that hold
// small values: counts, lengths, tensor orders and dimensions.
std::vector<std::size_t> binary_prefix_offsets(const Bytes& in) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i + 8 <= in.size(); ++i) {
    std::uint64_t v;
    std::memcpy(&v, in.data() + i, 8);
    if (v <= (std::uint64_t{1} << 16)) at.push_back(i);
  }
  return at;
}

// Offsets and lengths of the decimal integer tokens of a text stream: block
// counts, orders, sector dimensions, charges, byte counts.
std::vector<std::pair<std::size_t, std::size_t>> text_number_tokens(const Bytes& in) {
  std::vector<std::pair<std::size_t, std::size_t>> at;
  auto is_space = [](std::byte b) {
    const auto c = std::to_integer<char>(b);
    return c == ' ' || c == '\n';
  };
  for (std::size_t i = 0; i < in.size();) {
    std::size_t j = i;
    while (j < in.size() && !is_space(in[j])) ++j;
    bool numeric = j > i;
    for (std::size_t k = i; k < j && numeric; ++k) {
      const auto c = std::to_integer<char>(in[k]);
      numeric = (c >= '0' && c <= '9') || (c == '-' && k == i && j > i + 1);
    }
    if (numeric) at.emplace_back(i, j - i);
    i = j + 1;
  }
  return at;
}

Bytes as_bytes(const std::string& s) {
  Bytes out;
  out.reserve(s.size());
  for (char c : s) out.push_back(static_cast<std::byte>(c));
  return out;
}

std::string as_string(const Bytes& b) {
  std::string out;
  out.reserve(b.size());
  for (std::byte x : b) out.push_back(std::to_integer<char>(x));
  return out;
}

Bytes mutate(const Bytes& seed, bool text, Mutation kind, Rng& rng) {
  Bytes out = seed;
  switch (kind) {
    case Mutation::kBitFlip: {
      const int flips = static_cast<int>(rng.integer(1, 4));
      for (int f = 0; f < flips; ++f)
        out[pick(rng, out.size())] ^= std::byte{1} << static_cast<int>(rng.integer(0, 7));
      break;
    }
    case Mutation::kOverwrite: {
      const int writes = static_cast<int>(rng.integer(1, 4));
      for (int k = 0; k < writes; ++k) {
        std::byte b = random_byte(rng);
        if (text && rng.integer(0, 1) == 0)  // keep it token-shaped half the time
          b = static_cast<std::byte>("0123456789 -\n"[pick(rng, 13)]);
        out[pick(rng, out.size())] = b;
      }
      break;
    }
    case Mutation::kTruncate:
      out.resize(pick(rng, out.size()));
      break;
    case Mutation::kExtend: {
      const std::size_t extra = static_cast<std::size_t>(rng.integer(1, 64));
      if (rng.integer(0, 1) == 0) {
        for (std::size_t k = 0; k < extra; ++k) out.push_back(random_byte(rng));
      } else {  // repeat a slice of the input, so the tail looks well formed
        const std::size_t from = pick(rng, out.size());
        for (std::size_t k = 0; k < extra && from + k < seed.size(); ++k)
          out.push_back(seed[from + k]);
      }
      break;
    }
    case Mutation::kLengthPrefix:
      if (text) {
        const auto tokens = text_number_tokens(seed);
        const auto [at, len] = tokens[pick(rng, tokens.size())];
        const auto first = seed.begin() + static_cast<std::ptrdiff_t>(at);
        const std::string token =
            as_string(Bytes(first, first + static_cast<std::ptrdiff_t>(len)));
        const auto old = static_cast<std::uint64_t>(std::atoll(token.c_str()));
        // Clear the sign bit so the value prints as a signed count; a quarter
        // of the edits then negate it.
        const auto value = static_cast<long long>(
            interesting_count(rng, old, seed.size()) & 0x7fffffffffffffffull);
        const Bytes repl =
            as_bytes(std::to_string(rng.integer(0, 3) == 0 ? -value : value));
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(at),
                  out.begin() + static_cast<std::ptrdiff_t>(at + len));
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), repl.begin(),
                   repl.end());
      } else {
        const auto offsets = binary_prefix_offsets(seed);
        const std::size_t at = offsets[pick(rng, offsets.size())];
        std::uint64_t v;
        std::memcpy(&v, out.data() + at, 8);
        v = interesting_count(rng, v, seed.size());
        std::memcpy(out.data() + at, &v, 8);
      }
      break;
  }
  return out;
}

// Runs `parse` on kMutantsPerInput mutants of `seed` and checks the contract.
void fuzz(const char* what, const Bytes& seed, bool text, std::uint64_t rng_seed,
          const std::function<void(const Bytes&)>& parse) {
  // The unmutated input must parse, or the fuzzer exercises nothing.
  ASSERT_NO_THROW(parse(seed)) << what << ": seed input does not parse";
  Rng rng(rng_seed);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const auto kind = static_cast<Mutation>(rng.integer(0, kNumMutations - 1));
    const Bytes mutant = mutate(seed, text, kind, rng);
    g_largest.store(0);
    g_tracking.store(true);
    try {
      parse(mutant);
      ++parsed;
    } catch (const tt::Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      g_tracking.store(false);
      FAIL() << what << " mutant " << i << " (" << mutation_name(kind)
             << ") threw a non-tt::Error: " << e.what();
    }
    g_tracking.store(false);
    EXPECT_LE(g_largest.load(), kAllocSlack + 8 * mutant.size())
        << what << " mutant " << i << " (" << mutation_name(kind) << ") allocated "
        << g_largest.load() << " bytes from " << mutant.size() << " input bytes";
  }
  EXPECT_GT(rejected, 0) << what;
  EXPECT_EQ(parsed + rejected, kMutantsPerInput) << what;
  std::cout << what << ": " << kMutantsPerInput << " mutants, " << parsed << " parsed, "
            << rejected << " rejected with tt::Error\n";
}

// A task of three bins over small matrix blocks, as the root would ship it.
Bytes task_seed(std::vector<tt::tensor::DenseTensor>& storage) {
  Rng rng(5);
  storage.clear();
  storage.push_back(tt::tensor::DenseTensor::random({3, 2}, rng));
  storage.push_back(tt::tensor::DenseTensor::random({3, 2}, rng));
  storage.push_back(tt::tensor::DenseTensor::random({2, 4}, rng));
  storage.push_back(tt::tensor::DenseTensor::random({2, 1}, rng));
  tt::rt::TaskFrame task;
  task.spec = "ab,bc->ac";
  task.collect_ops = true;
  task.timeout_seconds = 5.0;
  task.table_a = {&storage[0], &storage[1]};
  task.table_b = {&storage[2], &storage[3]};
  task.bins = {{0, {{0, 0}}}, {3, {{0, 1}, {1, 1}}}, {7, {{1, 0}}}};
  return tt::rt::encode_task(task);
}

TEST(WireFuzz, TaskFramePayload) {
  std::vector<tt::tensor::DenseTensor> storage;
  fuzz("task frame", task_seed(storage), /*text=*/false, 101,
       [](const Bytes& b) { (void)tt::rt::parse_task(b); });
}

TEST(WireFuzz, ResultFramePayload) {
  std::vector<tt::tensor::DenseTensor> storage;
  const tt::rt::WorkerTask task = tt::rt::parse_task(task_seed(storage));
  std::vector<tt::symm::BinExecution> done;
  for (const tt::symm::OutputBin& bin : task.bins)
    done.push_back(tt::symm::execute_bin(bin, task.lowering, /*collect_ops=*/true));
  const Bytes seed = tt::rt::encode_result(task, 0.25, done, 0.125);
  const std::vector<std::size_t> expect(task.bin_index.begin(), task.bin_index.end());
  fuzz("result frame", seed, /*text=*/false, 102,
       [&](const Bytes& b) { (void)tt::rt::parse_result(b, expect); });
}

TEST(WireFuzz, MpsStream) {
  Rng rng(9);
  auto sites = tt::models::spin_half_sites(4);
  const tt::mps::Mps psi = tt::mps::Mps::random(sites, tt::symm::QN(0), 3, rng);
  std::ostringstream os;
  tt::mps::write_mps(os, psi);
  fuzz("mps stream", as_bytes(os.str()), /*text=*/true, 103, [&](const Bytes& b) {
    std::istringstream is(as_string(b));
    (void)tt::mps::read_mps(is, sites);
  });
}

TEST(WireFuzz, CheckpointManifest) {
  auto sites = tt::models::spin_half_sites(4);
  const fs::path dir = fs::path(::testing::TempDir()) / "wire_fuzz_ckpt";
  fs::remove_all(dir);
  {
    tt::dmrg::CheckpointManager mgr(dir.string());
    mgr.save(tt::mps::Mps::product_state(sites, {0, 1, 0, 1}),
             tt::dmrg::SweepPosition{}, {});
  }
  const fs::path manifest = dir / "MANIFEST";
  std::string text;
  {
    std::ifstream is(manifest);
    std::ostringstream all;
    all << is.rdbuf();
    text = all.str();
  }
  fuzz("checkpoint manifest", as_bytes(text), /*text=*/true, 104, [&](const Bytes& b) {
    {
      std::ofstream os(manifest, std::ios::binary | std::ios::trunc);
      os << as_string(b);
    }
    tt::dmrg::CheckpointManager mgr(dir.string());
    (void)mgr.load(sites);
  });
  fs::remove_all(dir);
}

}  // namespace
