module scalia/bench

go 1.22

require scalia v0.0.0

replace scalia => ../
