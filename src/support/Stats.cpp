//===--- Stats.cpp - Named counters rendered as text or JSON --------------===//
#include "support/Stats.h"

#include "support/JSONWriter.h"

#include <algorithm>
#include <span>

namespace mcc::stats {

namespace {

/// Calls \p F with each run of rows of \p C that share a group.
template <typename Fn> void forEachGroup(const Component &C, Fn F) {
  for (auto B = C.Rows.begin(); B != C.Rows.end();) {
    auto E = std::find_if(B, C.Rows.end(),
                          [&](const Row &R) { return R.Group != B->Group; });
    F(std::span<const Row>(B, E));
    B = E;
  }
}

} // namespace

std::string render(const std::vector<Component> &Components, Format F) {
  std::string Out;
  if (F == Format::Text) {
    for (const Component &C : Components) {
      Out += "== " + std::string(C.Name) + " ==\n";
      forEachGroup(C, [&](std::span<const Row> G) {
        Out += std::string(G.front().Group) + ':';
        for (const Row &R : G)
          Out += ' ' + std::string(R.Name) + '=' +
                 (R.Label ? std::string(R.Label) : std::to_string(R.Count));
        Out += '\n';
      });
    }
    return Out;
  }
  json::Writer W(Out);
  W.beginObject();
  for (const Component &C : Components) {
    W.key(C.Name);
    W.beginObject();
    forEachGroup(C, [&](std::span<const Row> G) {
      W.key(G.front().Group);
      W.beginObject();
      for (const Row &R : G) {
        if (R.Label)
          W.field(R.Name, R.Label);
        else
          W.field(R.Name, R.Count);
      }
      W.endObject();
    });
    W.endObject();
  }
  W.endObject();
  return Out + '\n';
}

} // namespace mcc::stats
