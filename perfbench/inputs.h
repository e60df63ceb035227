// Seeded input generation for the benchmark. Every input is a function of
// the --seed argument alone, drawn from a generator the benchmark owns, so a
// change to the library can never shift the inputs it is measured on. The
// program under test only ever sees the rendered text.
#ifndef TIEBREAK_PERFBENCH_INPUTS_H_
#define TIEBREAK_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound);
  /// A Poisson(mean) draw (Knuth's product method; mean is small here).
  int32_t Poisson(double mean);

 private:
  uint64_t state_;
};

/// A win/move board: moves[v] lists the positions reachable from v,
/// ascending and duplicate-free. Positions are named "n<v>".
struct Board {
  std::vector<std::vector<int32_t>> moves;

  int32_t size() const { return static_cast<int32_t>(moves.size()); }
  int64_t NumMoves() const;
};

/// The program every workload runs.
inline constexpr const char* kWinMoveProgram =
    "win(X) :- move(X, Y), not win(Y).\n";

/// A random bipartite board: even positions move only to odd ones and vice
/// versa, so every cycle of the move graph is even and G(Π, Δ) has no odd
/// cycle. Out-degrees are Poisson(mean_degree).
Board BipartiteBoard(int32_t positions, double mean_degree, Rng* rng);

/// A random recursive tree: position v > 0 hangs under a uniform earlier
/// position, and moves go parent -> child.
Board GameTree(int32_t positions, Rng* rng);

/// Δ as a database dump: one pos(n<v>) fact per position in id order, then
/// the moves sorted by source (and target).
std::string DumpOrderText(const Board& board);

/// Δ as the move facts alone, in a seeded random order.
std::string ShuffledText(const Board& board, Rng* rng);

/// Positions in the subtree under each position of a GameTree (itself
/// included): the size of a point query's demanded cone.
std::vector<int32_t> SubtreeSizes(const Board& tree);

}  // namespace perfbench

#endif  // TIEBREAK_PERFBENCH_INPUTS_H_
