module hybriddkg/benchmark

go 1.22

require hybriddkg v0.0.0

replace hybriddkg => ../
