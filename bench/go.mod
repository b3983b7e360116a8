module mccls/bench

go 1.24

require mccls v0.0.0

replace mccls => ../
