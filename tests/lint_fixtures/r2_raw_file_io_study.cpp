// Fixture: a study model that opens its own output file instead of
// going through an IoBackend.
void dump_state(const char* path) {
  FILE* f = fopen(path, "w");
}
