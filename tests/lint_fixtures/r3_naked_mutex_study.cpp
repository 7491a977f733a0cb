// Fixture: a study model guarding shared state with a raw std::mutex
// that the thread-safety analysis cannot see.
class RankState {
  std::mutex mu_;
};
