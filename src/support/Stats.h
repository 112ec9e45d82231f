//===--- Stats.h - Named counters rendered as text or JSON ------*- C++ -*-===//
//
// Each component declares its counters once, in a .def list of rows
// (group, name, field) that expands into its atomics, its snapshot, the
// snapshot copy, the reset and a Component. render() turns components
// into text or JSON with the same names:
//
//   == <component> ==                {"<component>":{"<group>":
//   <group>: <name>=<value> ...        {"<name>":<value>,...},...},...}
//
//===----------------------------------------------------------------------===//
#ifndef MCC_SUPPORT_STATS_H
#define MCC_SUPPORT_STATS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mcc::stats {

/// One rendered value: a count, or a label such as an engine's name.
struct Row {
  std::string_view Group;
  std::string_view Name;
  std::uint64_t Count = 0;
  const char *Label = nullptr; ///< set: rendered instead of Count
};

/// A component's rows in render order, a group's rows adjacent. Names
/// and labels are literals that outlive the component.
struct Component {
  std::string_view Name;
  std::vector<Row> Rows;

  void add(std::string_view Group, std::string_view RowName,
           std::uint64_t Count) {
    Rows.push_back({Group, RowName, Count, nullptr});
  }
  void addLabel(std::string_view Group, std::string_view RowName,
                const char *Label) {
    Rows.push_back({Group, RowName, 0, Label});
  }
};

enum class Format : std::uint8_t { Text, JSON };

/// Renders \p Components as text blocks, or as one JSON object with one
/// key per component; either ends in a newline.
std::string render(const std::vector<Component> &Components, Format F);

} // namespace mcc::stats

#endif // MCC_SUPPORT_STATS_H
