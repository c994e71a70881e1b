// Dense QP builder for the solver tests: a test writes entries by
// (row, col) and hands the solvers the CSR form from sparse().
#pragma once

#include "numerics/csr_matrix.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"
#include "optim/qp.hpp"

namespace evc::opt {

struct DenseQp {
  num::Matrix h;
  num::Vector g;
  num::Matrix e_mat;
  num::Vector e_vec;
  num::Matrix a_mat;
  num::Vector b_vec;

  QpProblem sparse() const {
    QpProblem p;
    p.h = num::CsrMatrix::from_dense(h);
    p.g = g;
    p.e_mat = num::CsrMatrix::from_dense(e_mat);
    p.e_vec = e_vec;
    p.a_mat = num::CsrMatrix::from_dense(a_mat);
    p.b_vec = b_vec;
    return p;
  }
};

}  // namespace evc::opt
