module idxflow/bench

go 1.22

require idxflow v0.0.0

replace idxflow => ../
