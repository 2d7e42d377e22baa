module streamdag/bench

go 1.22

require streamdag v0.0.0

replace streamdag => ../
