/**
 * @file
 * Text encoding shared by every layer that writes JSON: the harness
 * reports and the gtscd protocol.
 */

#ifndef GTSC_SIM_TEXT_HH_
#define GTSC_SIM_TEXT_HH_

#include <string>
#include <string_view>

namespace gtsc::sim
{

/** JSON-escape `s` for a string literal (no surrounding quotes). */
std::string jsonEscape(std::string_view s);

} // namespace gtsc::sim

#endif // GTSC_SIM_TEXT_HH_
