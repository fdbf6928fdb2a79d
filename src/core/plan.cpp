#include "src/core/plan.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace summagen::core {
namespace {

int root_index(const std::vector<int>& members, int world_rank) {
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == world_rank) return static_cast<int>(i);
  }
  throw std::logic_error("summagen: sub-partition owner not in its row/col");
}

/// Emits the panel broadcasts of one sub-partition row of A (is_a) or
/// column of B; nothing for a line with a single owner.
void emit_line(const partition::PartitionSpec& spec,
               const SummaGenOptions& options, bool is_a, int line,
               ExecutionPlan& plan) {
  const std::int64_t line_extent =
      is_a ? spec.subph[static_cast<std::size_t>(line)]
           : spec.subpw[static_cast<std::size_t>(line)];
  if (line_extent == 0) return;
  const std::vector<int> owners =
      is_a ? spec.ranks_in_row(line) : spec.ranks_in_col(line);
  if (owners.size() == 1) return;
  const int cross = is_a ? spec.subpldb : spec.subplda;
  int group = -1;  // registered with the line's first broadcast

  for (int k = 0; k < cross; ++k) {
    const int bi = is_a ? line : k;
    const int bj = is_a ? k : line;
    const std::int64_t h = spec.subph[static_cast<std::size_t>(bi)];
    const std::int64_t w = spec.subpw[static_cast<std::size_t>(bj)];
    if (h == 0 || w == 0) continue;

    if (group < 0) {
      group = static_cast<int>(plan.groups.size());
      plan.groups.push_back(owners);
    }
    const int owner = spec.owner(bi, bj);
    const int root = root_index(owners, owner);
    const std::int64_t panel =
        options.bcast_panel_rows > 0 ? options.bcast_panel_rows : h;
    for (std::int64_t p0 = 0; p0 < h; p0 += panel) {
      CommOp op;
      op.is_a = is_a;
      op.bi = bi;
      op.bj = bj;
      op.p0 = p0;
      op.rows = std::min(panel, h - p0);
      op.width = w;
      op.bytes = op.rows * w * static_cast<std::int64_t>(sizeof(double));
      op.group = group;
      op.root = root;
      op.owner = owner;
      plan.comm_ops.push_back(op);
    }
  }
}

/// k-interval of one B panel: panel rows are rows of B, i.e. positions
/// along the DGEMM's shared dimension.
struct BSpan {
  std::int64_t k0 = 0;
  std::int64_t k1 = 0;
  int op_index = -1;
};

/// Derives the k-chunks of `g`: walks [0, n) through the refinement of the
/// A column-block boundaries and the B panel intervals of column `g.bj`,
/// assigning each cell the latest comm_ops index it reads from, and merges
/// adjacent cells with equal dependency. Both dependency step functions are
/// nondecreasing in k (comm_ops emits each line's payloads in ascending-k
/// order), so the merged chunks have strictly increasing `dep`.
void build_chunks(const partition::PartitionSpec& spec,
                  const std::vector<std::int64_t>& coff,
                  const std::map<std::pair<int, int>, int>& last_a,
                  const std::vector<BSpan>& b_spans, GemmOp& g) {
  std::size_t si = 0;
  int cb = 0;
  std::int64_t k = 0;
  while (k < spec.n) {
    while (coff[static_cast<std::size_t>(cb) + 1] <= k) ++cb;
    const auto a_it = last_a.find({g.bi, cb});
    const int a_dep = a_it == last_a.end() ? -1 : a_it->second;

    int b_dep = -1;
    std::int64_t b_end = spec.n;
    while (si < b_spans.size() && b_spans[si].k1 <= k) ++si;
    if (si < b_spans.size()) {
      if (b_spans[si].k0 <= k) {
        b_dep = b_spans[si].op_index;
        b_end = b_spans[si].k1;
      } else {
        b_end = b_spans[si].k0;  // locally-owned gap before the next panel
      }
    }

    const std::int64_t end =
        std::min(coff[static_cast<std::size_t>(cb) + 1], b_end);
    const int dep = std::max(a_dep, b_dep);
    if (!g.chunks.empty() && g.chunks.back().dep == dep) {
      g.chunks.back().k1 = end;
    } else {
      g.chunks.push_back({k, end, dep});
    }
    k = end;
  }
}

}  // namespace

ExecutionPlan build_plan(const partition::PartitionSpec& spec,
                         const SummaGenOptions& options) {
  ExecutionPlan plan;

  // Eager global order: every A sub-partition row (Fig. 2), then every B
  // sub-partition column (Fig. 3).
  for (int bi = 0; bi < spec.subplda; ++bi) {
    emit_line(spec, options, /*is_a=*/true, bi, plan);
  }
  for (int bj = 0; bj < spec.subpldb; ++bj) {
    emit_line(spec, options, /*is_a=*/false, bj, plan);
  }

  // Dependency indices for chunk derivation: the last panel of every
  // broadcast A sub-partition, and the k-interval of every B panel.
  plan.roff = spec.row_offsets();
  plan.coff = spec.col_offsets();
  const std::vector<std::int64_t>& roff = plan.roff;
  const std::vector<std::int64_t>& coff = plan.coff;
  std::map<std::pair<int, int>, int> last_a;
  std::map<int, std::vector<BSpan>> b_spans;
  for (std::size_t i = 0; i < plan.comm_ops.size(); ++i) {
    const CommOp& op = plan.comm_ops[i];
    if (op.is_a) {
      last_a[{op.bi, op.bj}] = static_cast<int>(i);
    } else {
      const std::int64_t k0 = roff[static_cast<std::size_t>(op.bi)] + op.p0;
      b_spans[op.bj].push_back({k0, k0 + op.rows, static_cast<int>(i)});
    }
  }
  const std::vector<BSpan> no_spans;

  for (int bi = 0; bi < spec.subplda; ++bi) {
    const std::int64_t h = spec.subph[static_cast<std::size_t>(bi)];
    if (h == 0) continue;
    for (int bj = 0; bj < spec.subpldb; ++bj) {
      const std::int64_t w = spec.subpw[static_cast<std::size_t>(bj)];
      if (w == 0) continue;
      GemmOp g;
      g.bi = bi;
      g.bj = bj;
      g.owner = spec.owner(bi, bj);
      const auto bs = b_spans.find(bj);
      build_chunks(spec, coff, last_a,
                   bs == b_spans.end() ? no_spans : bs->second, g);
      plan.gemm_ops.push_back(std::move(g));
    }
  }
  return plan;
}

}  // namespace summagen::core
