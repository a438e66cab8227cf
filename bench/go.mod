module instameasure/bench

go 1.22

require instameasure v0.0.0

replace instameasure => ../
