module clusterbft/bench

go 1.24

require clusterbft v0.0.0

replace clusterbft => ../
