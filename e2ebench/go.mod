module forwarddecay/e2ebench

go 1.22

require forwarddecay v0.0.0

replace forwarddecay => ../
