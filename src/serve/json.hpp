/// @file json.hpp
/// @brief The serve layer's name for the common JSON value
/// (common/json.hpp); the case ledger spells the type `serve::Json`.
#pragma once

#include "common/json.hpp"

namespace sickle::serve {

using Json = sickle::Json;

}  // namespace sickle::serve
