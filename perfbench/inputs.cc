#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Below(uint64_t bound) {
  // Rejection sampling keeps the draw unbiased.
  const uint64_t limit = ~uint64_t{0} - (~uint64_t{0} % bound);
  uint64_t value = Next();
  while (value >= limit) value = Next();
  return value % bound;
}

int32_t Rng::Poisson(double mean) {
  const double threshold = std::exp(-mean);
  double product = 1.0;
  int32_t draws = -1;
  do {
    product *= static_cast<double>(Next() >> 11) * 0x1.0p-53;
    ++draws;
  } while (product > threshold);
  return draws;
}

int64_t Board::NumMoves() const {
  int64_t total = 0;
  for (const std::vector<int32_t>& out : moves) total += out.size();
  return total;
}

Board BipartiteBoard(int32_t positions, double mean_degree, Rng* rng) {
  Board board;
  board.moves.resize(positions);
  const int32_t evens = (positions + 1) / 2;
  const int32_t odds = positions / 2;
  for (int32_t v = 0; v < positions; ++v) {
    // Targets are drawn from the other side: odd ids 2i+1 or even ids 2i.
    const bool even = v % 2 == 0;
    const int32_t side = even ? odds : evens;
    const int32_t degree = std::min(rng->Poisson(mean_degree), side);
    std::vector<int32_t>& out = board.moves[v];
    while (static_cast<int32_t>(out.size()) < degree) {
      const int32_t i = static_cast<int32_t>(rng->Below(side));
      const int32_t target = even ? 2 * i + 1 : 2 * i;
      if (std::find(out.begin(), out.end(), target) == out.end()) {
        out.push_back(target);
      }
    }
    std::sort(out.begin(), out.end());
  }
  return board;
}

Board GameTree(int32_t positions, Rng* rng) {
  Board tree;
  tree.moves.resize(positions);
  for (int32_t v = 1; v < positions; ++v) {
    tree.moves[rng->Below(v)].push_back(v);  // children arrive ascending
  }
  return tree;
}

namespace {

void AppendMove(int32_t from, int32_t to, std::string* text) {
  *text += "move(n";
  *text += std::to_string(from);
  *text += ", n";
  *text += std::to_string(to);
  *text += ").\n";
}

}  // namespace

std::string DumpOrderText(const Board& board) {
  std::string text;
  text.reserve(static_cast<size_t>(board.size()) * 16 +
               static_cast<size_t>(board.NumMoves()) * 24);
  for (int32_t v = 0; v < board.size(); ++v) {
    text += "pos(n";
    text += std::to_string(v);
    text += ").\n";
  }
  for (int32_t v = 0; v < board.size(); ++v) {
    for (int32_t w : board.moves[v]) AppendMove(v, w, &text);
  }
  return text;
}

std::string ShuffledText(const Board& board, Rng* rng) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  edges.reserve(board.NumMoves());
  for (int32_t v = 0; v < board.size(); ++v) {
    for (int32_t w : board.moves[v]) edges.emplace_back(v, w);
  }
  for (size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng->Below(i)]);
  }
  std::string text;
  text.reserve(edges.size() * 24);
  for (const auto& [from, to] : edges) AppendMove(from, to, &text);
  return text;
}

std::vector<int32_t> SubtreeSizes(const Board& tree) {
  std::vector<int32_t> size(tree.size(), 1);
  // Children carry larger ids than their parent, so one descending sweep
  // sees every subtree complete before its parent.
  for (int32_t v = tree.size() - 1; v >= 0; --v) {
    for (int32_t child : tree.moves[v]) size[v] += size[child];
  }
  return size;
}

}  // namespace perfbench
