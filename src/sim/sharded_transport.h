// The sharded transport is BeepTransport with shard_count > 1 (see
// transport.h); this name remains for callers that spell it out.
#pragma once

#include "sim/transport.h"

namespace nb {

using ShardedTransport = BeepTransport;

}  // namespace nb
