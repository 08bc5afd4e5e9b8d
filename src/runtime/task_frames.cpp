#include "runtime/task_frames.hpp"

#include "runtime/trace.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace tt::rt {

namespace {

constexpr std::size_t kOpBytes = 4 * sizeof(double);

}  // namespace

std::vector<std::byte> encode_task(const TaskFrame& task) {
  std::size_t bytes = WireWriter::str_bytes(task.spec) + 4 * 4 + 8 + 3 * 8;
  for (const tensor::DenseTensor* t : task.table_a) bytes += WireWriter::tensor_bytes(*t);
  for (const tensor::DenseTensor* t : task.table_b) bytes += WireWriter::tensor_bytes(*t);
  for (const TaskFrame::Bin& bin : task.bins) bytes += 16 + 8 * bin.pairs.size();

  WireWriter w;
  w.reserve(bytes);
  w.str(task.spec);
  w.u32(static_cast<std::uint32_t>(task.threads));
  w.u32(task.collect_ops ? 1 : 0);
  w.u32(task.kill_before_result ? 1 : 0);
  w.u32(task.fail_task ? 1 : 0);
  w.f64(task.timeout_seconds);
  w.u64(task.table_a.size());
  for (const tensor::DenseTensor* t : task.table_a) w.tensor(*t);
  w.u64(task.table_b.size());
  for (const tensor::DenseTensor* t : task.table_b) w.tensor(*t);
  w.u64(task.bins.size());
  for (const TaskFrame::Bin& bin : task.bins) {
    w.u64(bin.id);
    w.u64(bin.pairs.size());
    for (const auto& [ia, ib] : bin.pairs) {
      w.u32(ia);
      w.u32(ib);
    }
  }
  TT_ASSERT(w.size() == bytes, "task frame sized " << bytes << ", wrote " << w.size());
  return w.take();
}

WorkerTask parse_task(const std::vector<std::byte>& payload) {
  WireReader r(payload);
  WorkerTask task;
  task.lowering = tensor::lower_einsum(r.str());
  task.threads = static_cast<int>(r.u32());
  task.collect_ops = r.u32() != 0;
  task.kill_before_result = r.u32() != 0;
  task.fail_task = r.u32() != 0;
  task.timeout_seconds = r.f64();

  // Every element count below sizes an allocation, so bound it by what the
  // frame could possibly hold (each table entry / bin / pair costs at least
  // 8 bytes on the wire) before trusting it — a torn length prefix must
  // surface as a clean Error, not a gigabyte reserve.
  const std::uint64_t na = r.u64();
  TT_CHECK(na <= r.remaining() / 8,
           "task frame claims " << na << " A blocks in " << r.remaining() << " bytes");
  task.table_a.reserve(static_cast<std::size_t>(na));
  for (std::uint64_t i = 0; i < na; ++i) task.table_a.push_back(r.tensor());
  const std::uint64_t nb = r.u64();
  TT_CHECK(nb <= r.remaining() / 8,
           "task frame claims " << nb << " B blocks in " << r.remaining() << " bytes");
  task.table_b.reserve(static_cast<std::size_t>(nb));
  for (std::uint64_t i = 0; i < nb; ++i) task.table_b.push_back(r.tensor());

  const std::uint64_t nbins = r.u64();
  TT_CHECK(nbins <= r.remaining() / 16,
           "task frame claims " << nbins << " bins in " << r.remaining() << " bytes");
  task.bin_index.reserve(static_cast<std::size_t>(nbins));
  task.bins.reserve(static_cast<std::size_t>(nbins));
  for (std::uint64_t i = 0; i < nbins; ++i) {
    task.bin_index.push_back(r.u64());
    symm::OutputBin bin;
    const std::uint64_t npairs = r.u64();
    TT_CHECK(npairs <= r.remaining() / 8,
             "task bin claims " << npairs << " pairs in " << r.remaining() << " bytes");
    bin.pairs.reserve(static_cast<std::size_t>(npairs));
    for (std::uint64_t p = 0; p < npairs; ++p) {
      const std::uint32_t ia = r.u32();
      const std::uint32_t ib = r.u32();
      TT_CHECK(ia < task.table_a.size() && ib < task.table_b.size(),
               "task bin references block (" << ia << "," << ib
                                             << ") outside the shipped tables");
      symm::BinPair pw;  // keys are not shipped; execute_bin never reads them
      pw.ablk = &task.table_a[ia];
      pw.bblk = &task.table_b[ib];
      bin.pairs.push_back(pw);
    }
    task.bins.push_back(std::move(bin));
  }
  TT_CHECK(r.done(), "task payload has " << r.remaining() << " trailing bytes");
  return task;
}

std::vector<std::byte> encode_result(const WorkerTask& task, double busy_seconds,
                                     const std::vector<symm::BinExecution>& done,
                                     double decode_seconds) {
  TT_TRACE_SPAN("sched.encode", TraceCat::kScheduler);
  const Timer encode;
  std::size_t bytes = 8 + 8 + 8;
  for (const symm::BinExecution& bin : done)
    bytes += 4 * 8 + kOpBytes * bin.ops.size() + WireWriter::tensor_bytes(bin.result);

  WireWriter w;
  w.reserve(bytes);
  w.f64(busy_seconds);
  w.u64(done.size());
  for (std::size_t i = 0; i < done.size(); ++i) {
    const symm::BinExecution& bin = done[i];
    w.u64(task.bin_index[i]);
    w.f64(bin.flops);
    w.f64(bin.permuted_words);
    w.u64(bin.ops.size());
    for (const symm::BlockOpCost& op : bin.ops) {
      w.f64(op.flops);
      w.f64(op.words_a);
      w.f64(op.words_b);
      w.f64(op.words_c);
    }
    w.tensor(bin.result);
  }
  w.f64(decode_seconds + encode.seconds());
  TT_ASSERT(w.size() == bytes, "result frame sized " << bytes << ", wrote " << w.size());
  return w.take();
}

WorkerReply parse_result(const std::vector<std::byte>& payload,
                         const std::vector<std::size_t>& expect) {
  WireReader reader(payload);
  WorkerReply reply;
  reply.busy_seconds = reader.f64();
  const std::uint64_t nbins = reader.u64();
  TT_CHECK(nbins == expect.size(),
           "result frame holds " << nbins << " bins, expected " << expect.size());
  reply.bins.resize(expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const std::uint64_t g = reader.u64();
    TT_CHECK(g == expect[i],
             "result frame holds bin " << g << ", expected " << expect[i]);
    symm::BinExecution& bin = reply.bins[i];
    bin.flops = reader.f64();
    bin.permuted_words = reader.f64();
    const std::uint64_t nops = reader.u64();
    // Bound before the resize so a corrupt count heals instead of OOMing
    // the root.
    TT_CHECK(nops <= reader.remaining() / kOpBytes,
             "result bin claims " << nops << " ops in " << reader.remaining()
                                  << " bytes");
    bin.ops.resize(static_cast<std::size_t>(nops));
    for (symm::BlockOpCost& op : bin.ops) {
      op.flops = reader.f64();
      op.words_a = reader.f64();
      op.words_b = reader.f64();
      op.words_c = reader.f64();
    }
    bin.result = reader.tensor();
  }
  reply.codec_seconds = reader.f64();
  TT_CHECK(reader.done(),
           "result payload has " << reader.remaining() << " trailing bytes");
  return reply;
}

}  // namespace tt::rt
