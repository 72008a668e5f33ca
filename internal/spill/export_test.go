package spill

import "repro/internal/durable"

// frameHeader is the size of a frame's length and checksum prefix.
const frameHeader = durable.FrameHeader
