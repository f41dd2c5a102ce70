// Ablation (DESIGN.md decision 1): registry-attribute classification vs
// name-string matching, on forward secrecy. The obvious name heuristic
// ("DHE appears in the name") gets TLS 1.3 suites (no key exchange in the
// name) and anonymous ephemeral DH wrong; attribute-derived classification
// doesn't. Prints how many registered suites the heuristic misclassifies.
#include <cstdio>
#include <string_view>

#include "tlscore/cipher_suites.hpp"

int main() {
  const auto fs_by_name = [](std::string_view name) {
    return name.find("DHE") != std::string_view::npos;
  };
  std::size_t suites = 0, disagreements = 0;
  for (const auto& s : tls::core::all_cipher_suites()) {
    if (s.scsv) continue;
    ++suites;
    if (tls::core::is_forward_secret(s) != fs_by_name(s.name)) {
      ++disagreements;
    }
  }
  std::printf("forward-secrecy classifier disagreements, name vs registry: "
              "%zu of %zu registered suites\n",
              disagreements, suites);
  return 0;
}
