#pragma once

#include "study/trace_driver.hpp"

namespace ytcdn::study {

/// Former name of the sharded-engine driver, kept because the repository
/// benchmark (perfbench/) spells it and that tree changes only together
/// with the benchmark definition. New code uses TraceDriver.
using EventEngineDriver = TraceDriver;

}  // namespace ytcdn::study
