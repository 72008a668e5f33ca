package feedback

import "repro/internal/durable"

// frameOverhead is the size of a frame's length and checksum prefix.
const frameOverhead = durable.FrameHeader
